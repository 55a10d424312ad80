package canon

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"strings"
	"testing"
)

type inner struct{ N int }

type doc struct {
	A     int
	Inner inner
}

func (d doc) Validate() error {
	if d.A < 0 {
		return errors.New("doc.A is negative")
	}
	return nil
}

func TestDecode(t *testing.T) {
	d, err := Decode[doc]([]byte(`{"Inner":{"N":2},"A":1}`))
	if err != nil || d != (doc{A: 1, Inner: inner{N: 2}}) {
		t.Fatalf("Decode = %+v, %v", d, err)
	}
	for in, want := range map[string]string{
		`{"A":1,"B":2}`:              `unknown field "B"`,
		`{"Inner":{"M":1}}`:          `unknown field "M"`,
		`{"A":1} {"A":2}`:            "trailing data",
		`{"A":-1}`:                   "doc.A is negative",
		`{"A":1.5}`:                  "cannot unmarshal",
		`{"A":99999999999999999999}`: "cannot unmarshal",
	} {
		d, err := Decode[doc]([]byte(in))
		if err == nil || !strings.Contains(err.Error(), want) || d != (doc{}) {
			t.Errorf("Decode(%s) = %+v, %v; want the zero doc and an error containing %q", in, d, err, want)
		}
	}
}

func TestEncode(t *testing.T) {
	data, err := Encode(doc{A: 3})
	if err != nil || string(data) != `{"A":3,"Inner":{"N":0}}` {
		t.Fatalf("Encode = %s, %v", data, err)
	}
	if _, err := Encode(doc{A: -1}); err == nil || !strings.Contains(err.Error(), "doc.A is negative") {
		t.Fatalf("Encode of an invalid doc: %v", err)
	}
}

// TestDigest pins the digest to FNV-1a-64 over exactly json.Marshal's bytes,
// at no allocation beyond json.Marshal's own.
func TestDigest(t *testing.T) {
	v := doc{A: 7, Inner: inner{N: -3}}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if got, want := Digest(v), h.Sum64(); got != want {
		t.Fatalf("Digest = %#x, want %#x", got, want)
	}
	marshal := testing.AllocsPerRun(100, func() { json.Marshal(v) })
	digest := testing.AllocsPerRun(100, func() { Digest(v) })
	if digest > marshal {
		t.Fatalf("Digest allocates %v per call, json.Marshal %v", digest, marshal)
	}
}
