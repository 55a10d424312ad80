// Package canon is the one place that knows the repository's wire format
// and its digest. Every options document, sweep or search spec, checkpoint
// record, cache entry, request body and trace-file header decodes through
// its strict decoder, which rejects unknown fields anywhere in the document
// and trailing data, so a typo'd knob or a schema drift fails loudly instead
// of silently running the default. Every identity digest (options, specs,
// trace-store keys, and through them points, job ids and cache keys) is its
// FNV-1a-64 over the canonical encoding: json.Marshal emits struct fields in declaration order
// and floats in their shortest round-trip spelling, so equal values always
// digest identically.
package canon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Validator is a document that reports its first invalid field by name.
type Validator interface {
	Validate() error
}

// Decode parses data strictly into a T and validates it.
func Decode[T Validator](data []byte) (T, error) {
	var v T
	err := DecodeStrict(data, &v)
	if err == nil {
		err = v.Validate()
	}
	if err != nil {
		var zero T
		return zero, fmt.Errorf("decode %T: %w", v, err)
	}
	return v, nil
}

// Encode validates v and returns its canonical encoding.
func Encode[T Validator](v T) ([]byte, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("encode %T: %w", v, err)
	}
	return json.Marshal(v)
}

// DecodeStrict unmarshals data into v, rejecting unknown fields anywhere in
// the document and anything after the first JSON value. It is the decoder
// for documents without a Validate method: records, requests and headers.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// FNV-1a-64 parameters.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Digest returns the FNV-1a-64 hash of exactly the bytes json.Marshal(v)
// returns. Digests are taken of plain value types, which always marshal, so
// a failure is a programming error and panics.
func Digest(v any) uint64 {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("canon: %T not marshalable: %v", v, err))
	}
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
