package accel

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// simulatorOptionSets covers the structurally distinct layer paths:
// stratified (balancing and explicit θ), homogeneous dense, and ECP-pruned
// attention, at the default and at a second bundle shape.
func simulatorOptionSets() map[string]Options {
	ecp := DefaultOptions()
	ecp.ECP = &bundle.ECPConfig{Shape: bundle.DefaultShape, ThetaQ: 2, ThetaK: 2}
	explicit := DefaultOptions()
	explicit.ThetaS = 3
	homogeneous := DefaultOptions()
	homogeneous.Stratify = false
	small := DefaultOptions()
	small.Shape, small.SplitTarget = bundle.Shape{BSt: 2, BSn: 2}, 0.25
	small.ECP = &bundle.ECPConfig{Shape: small.Shape, ThetaQ: 6, ThetaK: 6}
	return map[string]Options{
		"default":     DefaultOptions(),
		"explicitθ":   explicit,
		"homogeneous": homogeneous,
		"ecp":         ecp,
		"2x2+ecp":     small,
	}
}

func sameReport(t *testing.T, what string, got, want *hw.Report) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range want.Layers {
		if i < len(got.Layers) && !reflect.DeepEqual(got.Layers[i], want.Layers[i]) {
			t.Fatalf("%s: layer %d (%s): %+v != %+v", what, i, want.Layers[i].Name, got.Layers[i], want.Layers[i])
		}
	}
	t.Fatalf("%s: report %+v != %+v", what, got.Total, want.Total)
}

// TestSimulatorMatchesSimulate pins that every entry point — Simulate,
// SimulateSeq, SimulateConfigs and a reused Simulator walking a shared
// Prepared value — produces the same report for every option path.
func TestSimulatorMatchesSimulate(t *testing.T) {
	sets := simulatorOptionSets()
	var opts []Options
	for _, opt := range sets {
		opts = append(opts, opt)
	}
	for _, model := range []int{1, 4} {
		tr := trace(model, model == 1, uint64(model))
		configs := SimulateConfigs(tr, opts)
		for i, opt := range opts {
			want := Simulate(tr, opt)
			sameReport(t, "SimulateSeq", SimulateSeq(tr, opt), want)
			sameReport(t, "SimulateConfigs", configs[i], want)
		}
		for name, opt := range sets {
			t.Run(name, func(t *testing.T) {
				var sim Simulator
				p := sim.Prepare(tr, opt)
				want := Simulate(tr, opt)
				for range 2 { // reuse must not drift
					sameReport(t, "Simulator", sim.Simulate(p, opt), want)
				}
				sameReport(t, "fresh Simulator", new(Simulator).Simulate(p, opt), want)
			})
		}
	}
}

// TestLayerParallelismBitIdentical pins the determinism contract: the
// layer-parallel preparation must reproduce the sequential one bit for bit,
// every metric of every layer, at any worker count.
func TestLayerParallelismBitIdentical(t *testing.T) {
	for _, model := range []int{1, 3} {
		tr := trace(model, false, 1)
		seq := simulate(tr, DefaultOptions(), 1)
		for _, workers := range []int{2, 4, 8} {
			if par := simulate(tr, DefaultOptions(), workers); !reflect.DeepEqual(seq, par) {
				t.Fatalf("model %d: %d-worker report differs from sequential", model, workers)
			}
		}
	}
}

func TestSimulateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	tr := trace(2, false, 1)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	seq := Simulate(tr, DefaultOptions())
	runtime.GOMAXPROCS(8)
	par := Simulate(tr, DefaultOptions())
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("GOMAXPROCS=8 report differs from GOMAXPROCS=1")
	}
}

func TestSimulateConfigsMatchesSimulate(t *testing.T) {
	tr := trace(1, false, 1)
	opts := []Options{DefaultOptions(), DefaultOptions(), DefaultOptions()}
	opts[1].Stratify = false
	opts[2].Shape = bundle.Shape{BSt: 1, BSn: 2}
	reps := SimulateConfigs(tr, opts)
	for i, opt := range opts {
		if !reflect.DeepEqual(reps[i], simulate(tr, opt, 1)) {
			t.Fatalf("config slot %d differs from direct Simulate", i)
		}
	}
}

// masked returns a copy of tr whose attention layers carry the keep-masks
// ecp computes for them.
func masked(tr *transformer.Trace, ecp bundle.ECPConfig) *transformer.Trace {
	out := &transformer.Trace{Layers: append([]transformer.TraceLayer(nil), tr.Layers...)}
	for i, l := range out.Layers {
		if l.Kind == transformer.KindAttention {
			out.Layers[i].QKeep, out.Layers[i].KKeep, _ = ecp.Prune(l.Q, l.K)
		}
	}
	return out
}

// TestECPMatchesKeepMasks pins ECP from prepared row statistics against
// the mask semantics it replaces: simulating under ECP equals simulating a
// trace that carries ECPConfig.Prune's masks, including when the ECP shape
// differs from the TTB shape.
func TestECPMatchesKeepMasks(t *testing.T) {
	tr := trace(3, false, 4)
	for _, sh := range []bundle.Shape{bundle.DefaultShape, {BSt: 1, BSn: 4}, {BSt: 3, BSn: 3}} {
		opt := DefaultOptions()
		ecp := bundle.ECPConfig{Shape: sh, ThetaQ: 6, ThetaK: 5}
		opt.ECP = &ecp
		plain := DefaultOptions()
		sameReport(t, fmt.Sprintf("ECP at %+v", sh), Simulate(tr, opt), Simulate(masked(tr, ecp), plain))
	}
}

// TestPreloadedMasksAreNotRepruned pins that attention layers whose trace
// already carries QKeep/KKeep keep those masks under any ECP setting.
func TestPreloadedMasksAreNotRepruned(t *testing.T) {
	tr := masked(trace(3, false, 4), bundle.ECPConfig{Shape: bundle.DefaultShape, ThetaQ: 6, ThetaK: 6})
	want := Simulate(tr, DefaultOptions())
	opt := DefaultOptions()
	opt.ECP = &bundle.ECPConfig{Shape: bundle.DefaultShape, ThetaQ: 20, ThetaK: 20}
	sameReport(t, "re-pruned", Simulate(tr, opt), want)
	var sim Simulator
	sameReport(t, "re-pruned (Simulator)", sim.Simulate(sim.Prepare(tr, opt), opt), want)
}

// TestSimulatorZeroAllocSteadyState pins the steady-state contract: once a
// Simulator has walked a Prepared value, further points on it — including
// the stratifier, the split statistics and ECP — allocate nothing.
func TestSimulatorZeroAllocSteadyState(t *testing.T) {
	for name, opt := range simulatorOptionSets() {
		t.Run(name, func(t *testing.T) {
			var sim Simulator
			p := new(Simulator).Prepare(trace(4, false, 7), opt)
			sim.Simulate(p, opt) // warm the scratch
			if allocs := testing.AllocsPerRun(10, func() {
				sim.Simulate(p, opt)
			}); allocs != 0 {
				t.Fatalf("Simulator.Simulate steady state allocates %.1f objects/run, want 0", allocs)
			}
		})
	}
}

// TestSimulatorReportReuse pins the ownership contract: the report returned
// by one call is overwritten by the next, so callers that need to keep
// results across calls must copy them out.
func TestSimulatorReportReuse(t *testing.T) {
	var sim Simulator
	opt := DefaultOptions()
	a := sim.Simulate(sim.Prepare(trace(1, false, 1), opt), opt)
	aTotal := a.Total
	b := sim.Simulate(sim.Prepare(trace(4, false, 2), opt), opt)
	if a != b {
		t.Fatal("Simulator must reuse its report across calls")
	}
	if reflect.DeepEqual(aTotal, b.Total) {
		t.Fatal("second simulation did not overwrite the report")
	}
}

// TestSimulatorRejectsOtherShapes pins the guard against walking
// statistics prepared at a different bundle shape.
func TestSimulatorRejectsOtherShapes(t *testing.T) {
	p := new(Simulator).Prepare(trace(4, false, 1), DefaultOptions())
	opt := DefaultOptions()
	opt.Shape = bundle.Shape{BSt: 2, BSn: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("want a panic for mismatched shapes")
		}
	}()
	new(Simulator).Simulate(p, opt)
}

// BenchmarkSimulatorSteadyState is the benchdiff anchor for one design
// point: the full Bishop layer walk over a prepared Model 4 trace with
// reused scratch.
func BenchmarkSimulatorSteadyState(b *testing.B) {
	opt := DefaultOptions()
	p := new(Simulator).Prepare(trace(4, false, 7), opt)
	var sim Simulator
	sim.Simulate(p, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(p, opt)
	}
}

// BenchmarkPrepare is the layer-statistics rung of the benchmark ladder:
// one Simulator.Prepare of the Model 5 trace, the bundle-row walk of every
// layer, at the two shapes of the sweep rung on a warm Simulator.
func BenchmarkPrepare(b *testing.B) {
	tr := trace(5, false, 1)
	for _, sh := range []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}} {
		b.Run(fmt.Sprintf("%dx%d", sh.BSt, sh.BSn), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Shape = sh
			var sim Simulator
			sim.Prepare(tr, opt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Prepare(tr, opt)
			}
		})
	}
}
