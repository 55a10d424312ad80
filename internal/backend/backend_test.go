package backend

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func testTrace(t testing.TB) *transformer.Trace {
	t.Helper()
	cfg := transformer.ModelZoo()[3] // Model 4, the cheapest Table 2 model
	return workload.CachedTrace(cfg, workload.Scenarios()[4], workload.TraceOptions{}, 1)
}

// TestRegistryNames pins the fixed backend table: its sorted names, and
// the error an unknown name gets.
func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{BishopName, GPUName, PTBName} {
		if !Registered(want) {
			t.Fatalf("%q not registered (have %v)", want, names)
		}
	}
	if !reflect.DeepEqual(names, []string{BishopName, GPUName, PTBName}) {
		t.Fatalf("Names() = %v, want sorted builtins", names)
	}
	if _, err := Default("nope"); err == nil || !strings.Contains(err.Error(), `unknown backend "nope"`) {
		t.Fatalf("unknown name must error with the registered list: %v", err)
	}
}

// TestDefaultsSimulate ties every builtin backend to the package it wraps:
// the interface's report must be the exact report of a direct call.
func TestDefaultsSimulate(t *testing.T) {
	tr := testTrace(t)
	for _, tc := range []struct {
		name   string
		report string
		direct func() any
	}{
		{BishopName, "Bishop", func() any { return accel.SimulateSeq(tr, accel.DefaultOptions()) }},
		{PTBName, "PTB", func() any { return ptb.Simulate(tr, ptb.DefaultOptions()) }},
		{GPUName, "EdgeGPU", func() any { return gpu.Simulate(tr, gpu.DefaultOptions()) }},
	} {
		b, err := Default(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != tc.name {
			t.Fatalf("Name() = %q want %q", b.Name(), tc.name)
		}
		rep := b.Simulate(tr)
		if rep.Name != tc.report {
			t.Fatalf("%s: report name %q want %q", tc.name, rep.Name, tc.report)
		}
		if !reflect.DeepEqual(rep, tc.direct()) {
			t.Fatalf("%s: backend report differs from the direct %s call", tc.name, tc.report)
		}
	}
}

// TestDecodeRoundTrip pins the codec contract: EncodeOptions bytes decode
// back to an equal backend (same digest, same simulation), nil options mean
// the default configuration, and unknown fields reject for every builtin.
func TestDecodeRoundTrip(t *testing.T) {
	for _, name := range Names() {
		def, err := Default(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := def.EncodeOptions()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := Decode(name, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(back, def) || back.Digest() != def.Digest() {
			t.Fatalf("%s: decode(encode) drifted", name)
		}
		if fromNil, err := Decode(name, nil); err != nil || fromNil.Digest() != def.Digest() {
			t.Fatalf("%s: nil options must mean the default configuration: %v", name, err)
		}
		if _, err := Decode(name, []byte(`{"NoSuchKnob":1}`)); err == nil {
			t.Fatalf("%s: unknown field must reject", name)
		}
	}
}

// TestDigestsDistinct pins the name folding: default configurations of
// different backends never collide, and a backend digest never equals the
// bare options digest it folds the name into.
func TestDigestsDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, name := range Names() {
		b, err := Default(name)
		if err != nil {
			t.Fatal(err)
		}
		d := b.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("%s and %s share digest %#x", prev, name, d)
		}
		seen[d] = name
	}
	bshop := Bishop{Opt: accel.DefaultOptions()}
	if bshop.Digest() == bshop.Opt.Digest() {
		t.Fatal("backend digest must fold the name into the options digest")
	}
	if FoldName(1, "ptb") == FoldName(1, "gpu") {
		t.Fatal("FoldName must separate names")
	}
}

// unrunnable are options documents the simulators cannot run: each must
// fail decoding with an error naming the field, never reach a simulator.
var unrunnable = []struct {
	name, doc, field string
}{
	{BishopName, `{"Array":{"DensePEs":-4}}`, "Options.Array.DensePEs"},
	{BishopName, `{"Shape":{"BSt":4,"BSn":-2}}`, "Options.Shape"},
	{BishopName, `{"Tech":{"ClockHz":5e8}}`, "Options.Tech.DRAMBandwidth"},
	{PTBName, `{"Array":{"DensePEs":512}}`, "Options.Array.DenseCols"},
	{PTBName, `{"Tech":{"ClockHz":-1}}`, "Options.Tech.ClockHz"},
}

func TestDecodeRejectsUnrunnableOptions(t *testing.T) {
	for _, tc := range unrunnable {
		if _, err := Decode(tc.name, []byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Decode(%s, %s) = %v, want an error naming %s", tc.name, tc.doc, err, tc.field)
		}
	}
}

// FuzzDecodeOptions fuzzes the options codec of every backend kind: on
// whatever decodes, decode∘encode is the identity and the digest survives
// the round trip.
func FuzzDecodeOptions(f *testing.F) {
	for i, k := range kinds {
		data, err := k.def.EncodeOptions()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
	}
	for _, tc := range unrunnable {
		for i, k := range kinds {
			if k.name == tc.name {
				f.Add(uint8(i), []byte(tc.doc))
			}
		}
	}
	f.Fuzz(func(t *testing.T, i uint8, data []byte) {
		k := kinds[int(i)%len(kinds)]
		b, err := Decode(k.name, data)
		if err != nil {
			return
		}
		enc, err := b.EncodeOptions()
		if err != nil {
			t.Fatalf("%s: decoded options do not re-encode: %v", k.name, err)
		}
		b2, err := Decode(k.name, enc)
		if err != nil {
			t.Fatalf("%s: re-encoded options do not decode: %v", k.name, err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("%s: decode∘encode not identity:\n%+v\n%+v", k.name, b, b2)
		}
		if b.Digest() != b2.Digest() {
			t.Fatalf("%s: digest unstable across the round trip", k.name)
		}
	})
}
