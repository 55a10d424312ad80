package gpu

import (
	"math"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/canon"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func trace(model int, seed uint64) *transformer.Trace {
	cfg := transformer.ModelZoo()[model-1]
	return workload.SyntheticTrace(cfg, workload.Scenarios()[model],
		workload.TraceOptions{}, seed)
}

func bsaTrace(model int, seed uint64) *transformer.Trace {
	cfg := transformer.ModelZoo()[model-1]
	return workload.SyntheticTrace(cfg, workload.Scenarios()[model],
		workload.TraceOptions{BSA: true}, seed)
}

func TestGPUOrdersOfMagnitudeSlower(t *testing.T) {
	// §6.2: Bishop averages ~299x over the edge GPU; require two orders of
	// magnitude for every model.
	for m := 1; m <= 5; m++ {
		tr := trace(m, uint64(m))
		g := Simulate(tr, DefaultOptions())
		b := accel.Simulate(tr, accel.DefaultOptions())
		ratio := g.LatencyMS() / b.LatencyMS()
		if ratio < 50 || ratio > 2000 {
			t.Fatalf("model %d: GPU/Bishop ratio %.0fx outside band", m, ratio)
		}
	}
}

func TestEnergyIsPowerTimesTime(t *testing.T) {
	tr := trace(4, 1)
	opt := DefaultOptions()
	rep := Simulate(tr, opt)
	wantMJ := opt.PowerW * rep.Total.LatencySec(rep.Tech) * 1e3
	gotMJ := rep.EnergyMJ()
	if gotMJ < wantMJ*0.99 || gotMJ > wantMJ*1.01 {
		t.Fatalf("energy %v want %v", gotMJ, wantMJ)
	}
}

func TestKernelOverheadMatters(t *testing.T) {
	tr := trace(4, 2)
	fast := DefaultOptions()
	slow := DefaultOptions()
	slow.KernelOverhead = 10 * fast.KernelOverhead
	if Simulate(tr, slow).Total.Cycles <= Simulate(tr, fast).Total.Cycles {
		t.Fatal("kernel overhead must increase latency")
	}
}

func TestZeroOptionsDefault(t *testing.T) {
	if Simulate(trace(4, 3), Options{}).Total.Cycles <= 0 {
		t.Fatal("zero options must fall back to defaults")
	}
}

// TestNormalizePerField pins the fix for the historical all-or-nothing
// PeakFLOPS sentinel: a partially-specified Options keeps its explicit
// knobs and defaults only the unset ones (the sentinel used to divide by a
// zero Utilization whenever PeakFLOPS alone was set).
func TestNormalizePerField(t *testing.T) {
	o := Options{PeakFLOPS: 2 * DefaultOptions().PeakFLOPS}
	o.normalize()
	def := DefaultOptions()
	if o.PeakFLOPS != 2*def.PeakFLOPS {
		t.Fatalf("explicit PeakFLOPS clobbered: %g", o.PeakFLOPS)
	}
	if o.Utilization != def.Utilization || o.BandwidthBps != def.BandwidthBps ||
		o.KernelOverhead != def.KernelOverhead || o.PowerW != def.PowerW {
		t.Fatalf("unset fields not defaulted: %+v", o)
	}
	// The simulated result must be finite and faster than the default config
	// (twice the peak on the same workload).
	fast := Simulate(trace(4, 3), o)
	slow := Simulate(trace(4, 3), Options{})
	if fast.Total.Cycles <= 0 || fast.Total.Cycles >= slow.Total.Cycles {
		t.Fatalf("doubled peak must cut cycles: %d vs %d", fast.Total.Cycles, slow.Total.Cycles)
	}
	zero := Options{}
	zero.normalize()
	if zero != def {
		t.Fatalf("zero options must normalize to the defaults: %+v", zero)
	}
}

func TestValidateNamedErrors(t *testing.T) {
	bad := []struct {
		mutate func(*Options)
		want   string
	}{
		{func(o *Options) { o.PeakFLOPS = math.NaN() }, "Options.PeakFLOPS is NaN"},
		{func(o *Options) { o.BandwidthBps = math.Inf(1) }, "Options.BandwidthBps is +Inf"},
		{func(o *Options) { o.Utilization = math.Inf(-1) }, "Options.Utilization is -Inf"},
		{func(o *Options) { o.KernelOverhead = -1e-6 }, "Options.KernelOverhead is negative"},
		{func(o *Options) { o.PowerW = -3 }, "Options.PowerW is negative"},
	}
	for _, tc := range bad {
		o := DefaultOptions()
		tc.mutate(&o)
		err := o.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate() = %v, want error naming %q", err, tc.want)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options are legal (normalize fills them): %v", err)
	}
}

func TestOptionsCodecAndDigest(t *testing.T) {
	o := DefaultOptions()
	data, err := canon.Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := canon.Decode[Options](data)
	if err != nil || back != o {
		t.Fatalf("round trip: %v, %+v", err, back)
	}
	if _, err := canon.Decode[Options]([]byte(`{"PeakFLOPS":1,"Typo":2}`)); err == nil {
		t.Fatal("unknown field must reject")
	}
	if _, err := canon.Decode[Options]([]byte(`{"PowerW":-1}`)); err == nil ||
		!strings.Contains(err.Error(), "Options.PowerW is negative") {
		t.Fatalf("negative field must reject by name: %v", err)
	}
	// Digest is field-order-stable and default-spelling-stable: the zero
	// options and the spelled-out defaults fingerprint identically, and a
	// reordered JSON document decodes to the same digest.
	if (Options{}).Digest() != DefaultOptions().Digest() {
		t.Fatal("zero options must digest as the defaults")
	}
	reordered, err := canon.Decode[Options]([]byte(
		`{"PowerW":10,"PeakFLOPS":472e9,"Utilization":0.07,"KernelOverhead":30e-6,"BandwidthBps":25.6e9}`))
	if err != nil {
		t.Fatal(err)
	}
	if reordered.Digest() != DefaultOptions().Digest() {
		t.Fatal("digest must be stable across JSON field order")
	}
	changed := DefaultOptions()
	changed.Utilization = 0.5
	if changed.Digest() == DefaultOptions().Digest() {
		t.Fatal("an effective knob change must change the digest")
	}
}
