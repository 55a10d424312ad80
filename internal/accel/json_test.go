package accel

import (
	"reflect"
	"testing"

	"repro/internal/bundle"
	"repro/internal/canon"
)

func sampleOptions() Options {
	opt := DefaultOptions()
	opt.Shape = bundle.Shape{BSt: 2, BSn: 4}
	opt.ThetaS = 3
	opt.SplitTarget = 0.37
	opt.ECP = &bundle.ECPConfig{Shape: opt.Shape, ThetaQ: 6, ThetaK: 8}
	return opt
}

func TestOptionsJSONRoundTrip(t *testing.T) {
	for _, opt := range []Options{DefaultOptions(), sampleOptions(), {}} {
		data, err := canon.Encode(opt)
		if err != nil {
			t.Fatal(err)
		}
		out, err := canon.Decode[Options](data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opt, out) {
			t.Fatalf("round trip drifted:\n in %+v\nout %+v", opt, out)
		}
	}
}

func TestDecodeOptionsRejectsUnknownFields(t *testing.T) {
	for _, c := range []string{
		`{"Stratify": true, "Strattify": false}`,
		`{"ECP": {"Shape": {"BSt":4,"BSn":2}, "Theta": 6}}`, // nested typo
		`{"Stratify": true} true`,
	} {
		if _, err := canon.Decode[Options]([]byte(c)); err == nil {
			t.Errorf("decode Options %q must fail", c)
		}
	}
}

func TestDigestStableAcrossFieldOrdering(t *testing.T) {
	// The same configuration spelled with fields in different orders (and
	// through a decode round trip) must digest identically: the digest is
	// computed from the normalized struct, never from raw bytes.
	a := `{"Stratify": true, "ThetaS": 3, "Shape": {"BSt": 2, "BSn": 4}}`
	b := `{"Shape": {"BSn": 4, "BSt": 2}, "ThetaS": 3, "Stratify": true}`
	oa, err := canon.Decode[Options]([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	ob, err := canon.Decode[Options]([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if oa.Digest() != ob.Digest() {
		t.Fatalf("field order changed the digest: %#x vs %#x", oa.Digest(), ob.Digest())
	}
}

func TestDigestNormalizesDefaults(t *testing.T) {
	// Spelling out a default and omitting it describe the same effective
	// configuration, so they digest identically.
	zero := Options{Stratify: true, ThetaS: -1}
	full := DefaultOptions()
	if zero.Digest() != full.Digest() {
		t.Fatalf("implicit vs explicit defaults digest differently: %#x vs %#x",
			zero.Digest(), full.Digest())
	}
}

func TestDigestSeparatesKnobs(t *testing.T) {
	base := DefaultOptions()
	seen := map[uint64]string{base.Digest(): "default"}
	mutate := []struct {
		name string
		fn   func(*Options)
	}{
		{"shape", func(o *Options) { o.Shape = bundle.Shape{BSt: 2, BSn: 2} }},
		{"thetaS", func(o *Options) { o.ThetaS = 4 }},
		{"split", func(o *Options) { o.SplitTarget = 0.25 }},
		{"stratify", func(o *Options) { o.Stratify = false }},
		{"ecp", func(o *Options) { o.ECP = &bundle.ECPConfig{Shape: o.Shape, ThetaQ: 6, ThetaK: 6} }},
		{"ecpTheta", func(o *Options) { o.ECP = &bundle.ECPConfig{Shape: o.Shape, ThetaQ: 7, ThetaK: 6} }},
	}
	for _, m := range mutate {
		opt := DefaultOptions()
		m.fn(&opt)
		d := opt.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("knob %q collides with %q", m.name, prev)
		}
		seen[d] = m.name
	}
}

func TestDigestIgnoresECPPointerIdentity(t *testing.T) {
	a, b := sampleOptions(), sampleOptions()
	if a.ECP == b.ECP {
		t.Fatal("want distinct pointers")
	}
	if a.Digest() != b.Digest() {
		t.Fatal("equal ECP configs behind distinct pointers must digest equally")
	}
}
