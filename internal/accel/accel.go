// Package accel is the top-level Bishop accelerator simulator (Fig. 9): it
// walks an activation trace layer by layer, runs the stratifier on every
// MLP/projection workload, dispatches the dense and sparse partitions onto
// the heterogeneous cores concurrently, routes SSA layers (optionally under
// ECP) to the TT-Bundle attention core, and accounts the spike generator and
// memory system — producing per-layer and end-to-end latency/energy reports.
//
// Simulation runs in two steps. Simulator.Prepare walks every layer of a
// trace once, one bundle row at a time, folding the bundle tags straight
// into the statistics the stratifier, ECP and the core models read; those
// depend only on the trace and the bundle shapes. Simulator.Simulate then
// walks the prepared statistics under one design point's options, so a
// sweep reduces each (trace, shape) pair once however many points share it.
package accel

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bundle"
	"repro/internal/canon"
	"repro/internal/hw"
	"repro/internal/hw/attention"
	"repro/internal/hw/dense"
	"repro/internal/hw/sparse"
	"repro/internal/hw/spikegen"
	"repro/internal/sched"
	"repro/internal/spike"
	"repro/internal/transformer"
)

// Options selects the architectural and algorithmic features active in a
// simulation run — the knobs the paper ablates.
type Options struct {
	Tech  hw.Tech
	Array hw.ArrayConfig
	Shape bundle.Shape // TTB volume (DefaultShape if zero)

	// Stratify enables the heterogeneous dense+sparse dispatch of Alg. 1.
	// When false, every MLP/projection layer runs on the dense core alone
	// (the §6.4 homogeneity ablation).
	Stratify bool
	// ThetaS is the explicit stratification threshold. When negative, the
	// per-layer balancing strategy of §6.5.1 is used with SplitTarget.
	ThetaS int
	// SplitTarget is the dense-core feature fraction targeted by the
	// balancing strategy (0 → default 0.5).
	SplitTarget float64

	// ECP, when non-nil, prunes attention workloads whose trace carries no
	// precomputed keep-masks.
	ECP *bundle.ECPConfig
}

// DefaultOptions returns the full-featured Bishop configuration.
func DefaultOptions() Options {
	return Options{
		Tech:     hw.Default28nm(),
		Array:    hw.BishopArray(),
		Shape:    bundle.DefaultShape,
		Stratify: true,
		ThetaS:   -1,
	}
}

func (o *Options) normalize() {
	if o.Tech.ClockHz == 0 {
		o.Tech = hw.Default28nm()
	}
	if o.Array.DensePEs == 0 {
		o.Array = hw.BishopArray()
	}
	if o.Shape.BSt == 0 {
		o.Shape = bundle.DefaultShape
	}
	if o.SplitTarget == 0 {
		o.SplitTarget = 0.5
	}
}

// Validate reports the first field of o the simulator cannot run, by name.
// Zero Tech, Array, Shape and SplitTarget are legal: normalize treats them
// as "use the default". The ECP shape has no default and must be valid.
func (o Options) Validate() error {
	if err := o.Tech.Validate("Options.Tech"); err != nil {
		return err
	}
	if err := o.Array.Validate("Options.Array", false); err != nil {
		return err
	}
	if o.Shape.BSt != 0 {
		if err := o.Shape.Validate(); err != nil {
			return fmt.Errorf("Options.Shape: %w", err)
		}
	}
	if !(o.SplitTarget >= 0 && o.SplitTarget <= 1) {
		return fmt.Errorf("Options.SplitTarget is %g, outside [0,1]", o.SplitTarget)
	}
	if e := o.ECP; e != nil {
		if err := e.Shape.Validate(); err != nil {
			return fmt.Errorf("Options.ECP.Shape: %w", err)
		}
		if e.ThetaQ < 0 || e.ThetaK < 0 {
			return fmt.Errorf("Options.ECP thresholds are negative (ThetaQ %d, ThetaK %d)", e.ThetaQ, e.ThetaK)
		}
	}
	return nil
}

// Digest returns a stable fingerprint of the *normalized* configuration:
// the canon digest of its canonical encoding, never of raw input bytes, so
// two JSON documents with reordered fields (or one spelling out the
// defaults the other omits) digest identically; any change to an effective
// knob changes it. The ECP config is digested by value, not by pointer.
func (o Options) Digest() uint64 {
	o.normalize()
	return canon.Digest(o)
}

// Shapes identifies the statistics a Prepared value holds: the TTB shape
// the linear layers are tagged at, and the ECP shape of the attention
// layers' row statistics (the TTB shape when ECP is off). Options with equal
// Shapes share one Prepared value.
type Shapes struct{ TTB, ECP bundle.Shape }

// Shapes returns the Shapes of the normalized options.
func (o Options) Shapes() Shapes {
	o.normalize()
	if o.ECP != nil {
		return Shapes{o.Shape, o.ECP.Shape}
	}
	return Shapes{o.Shape, o.Shape}
}

// Simulate runs the trace through the Bishop model and returns the report.
// The layers are prepared concurrently across the sched worker pool; the
// report is identical to SimulateSeq's.
func Simulate(tr *transformer.Trace, opt Options) *hw.Report {
	return simulate(tr, opt, 0)
}

// SimulateSeq is Simulate without the per-layer fan-out, for callers that
// already saturate the worker pool at a coarser granularity. The report is
// bit-identical to Simulate's.
func SimulateSeq(tr *transformer.Trace, opt Options) *hw.Report {
	return simulate(tr, opt, 1)
}

func simulate(tr *transformer.Trace, opt Options, jobs int) *hw.Report {
	return new(Simulator).Simulate(prepare(tr, opt.Shapes(), jobs, new(bundle.Walker)), opt)
}

// SimulateConfigs runs one trace under several option variants — the shape
// of every design-space sweep in the evaluation (Figs. 14–16, the
// ECP-threshold example) — returning reports in opts order. Consecutive
// variants with equal Shapes share one Prepared value.
func SimulateConfigs(tr *transformer.Trace, opts []Options) []*hw.Report {
	reps := make([]*hw.Report, len(opts))
	var p *Prepared
	for i, opt := range opts {
		if p == nil || p.shapes != opt.Shapes() {
			p = prepare(tr, opt.Shapes(), 0, nil)
		}
		reps[i] = new(Simulator).Simulate(p, opt)
	}
	return reps
}

// Prepared holds the statistics of one trace at one Shapes: per linear
// layer the unsplit hw.LinearStats and its active-bundle counts sorted for
// the split-balancing rule, per attention layer the unpruned hw.AttnStats
// and the per-row n_ab of Q and K that ECP thresholds. Everything a design
// point adds — θ_s, the split target, the ECP θ, the core models — is left
// to Simulator.Simulate. A Prepared is immutable and safe for concurrent
// readers.
type Prepared struct {
	shapes Shapes
	layers []layer
}

// layer is one simulated layer of a Prepared trace.
type layer struct {
	src    *transformer.TraceLayer
	lin    hw.LinearStats
	sorted []int // lin.ActivePerFeature, ascending
	attn   hw.AttnStats
	q, k   *ecpRows // nil when the trace carries keep-masks: ECP never re-prunes them
}

// ecpRows is one attention operand's ECP statistics at the ECP shape: each
// bundle row's n_ab and token-time slot count, and for each TTB-shape
// dispatch row the ECP row holding its first slot (-1 outside the operand).
type ecpRows struct{ nab, slots, dispatch []int }

// Prepare computes tr's statistics at opt's Shapes, walking the layers one
// after another on the Simulator's row scratch. The returned value does not
// alias the Simulator.
func (sim *Simulator) Prepare(tr *transformer.Trace, opt Options) *Prepared {
	return prepare(tr, opt.Shapes(), 1, &sim.walk)
}

// prepare walks the layers on jobs workers; a sequential run (jobs == 1)
// reuses w, a parallel one gives every layer its own Walker.
func prepare(tr *transformer.Trace, sh Shapes, jobs int, w *bundle.Walker) *Prepared {
	p := &Prepared{shapes: sh}
	for i := range tr.Layers {
		switch tr.Layers[i].Kind {
		case transformer.KindProjection, transformer.KindMLP, transformer.KindAttention:
			p.layers = append(p.layers, layer{src: &tr.Layers[i]})
		default:
			// Tokenizer: profiled but not a target of the accelerator
			// (§2.2); prior spiking-CNN accelerators handle it.
		}
	}
	err := sched.Map(context.Background(), len(p.layers), jobs, func(i int) error {
		scratch := w
		if jobs != 1 {
			scratch = new(bundle.Walker)
		}
		p.layers[i].fill(sh, scratch)
		return nil
	})
	if err != nil {
		panic(err) // only a worker panic can surface here; re-raise it
	}
	return p
}

func (l *layer) fill(sh Shapes, w *bundle.Walker) {
	src := l.src
	if src.Kind != transformer.KindAttention {
		l.lin = hw.WalkLinearStats(w, src.In, src.DOut, sh.TTB)
		l.sorted = slices.Clone(l.lin.ActivePerFeature)
		slices.Sort(l.sorted)
		return
	}
	l.attn = hw.NewAttnStats(*src, sh.TTB)
	if src.QKeep == nil {
		// Dispatch rows span Q's extent for both operands, as in
		// hw.NewAttnStats.
		nbt, nbn := sh.TTB.Rows(src.Q.T, src.Q.N)
		l.q = newECPRows(src.Q, sh, nbt, nbn, w)
		l.k = newECPRows(src.K, sh, nbt, nbn, w)
	}
}

func newECPRows(s *spike.Tensor, sh Shapes, nbt, nbn int, w *bundle.Walker) *ecpRows {
	es := sh.ECP
	e := &ecpRows{nab: w.ActiveRows(s, es), dispatch: make([]int, nbt*nbn)}
	_, ebn := es.Rows(s.T, s.N)
	e.slots = make([]int, len(e.nab))
	for b := range e.slots {
		t0, n0 := b/ebn*es.BSt, b%ebn*es.BSn
		e.slots[b] = (min(t0+es.BSt, s.T) - t0) * (min(n0+es.BSn, s.N) - n0)
	}
	for b := range e.dispatch {
		t0, n0 := b/nbn*sh.TTB.BSt, b%nbn*sh.TTB.BSn
		e.dispatch[b] = -1
		if t0 < s.T && n0 < s.N {
			e.dispatch[b] = t0/es.BSt*ebn + n0/es.BSn
		}
	}
	return e
}

// kept returns the token-time slots and dispatch rows that survive ECP at
// threshold θ: a bundle row survives iff n_ab ≥ θ (bundle.ECPConfig.Prune).
func (e *ecpRows) kept(theta int) (slots, rows int) {
	for r, n := range e.nab {
		if n >= theta {
			slots += e.slots[r]
		}
	}
	for _, r := range e.dispatch {
		if r >= 0 && e.nab[r] >= theta {
			rows++
		}
	}
	return slots, rows
}

// Simulator walks Prepared statistics under a design point's options. It
// owns the per-point scratch (stratification, dense/sparse split
// statistics, the report) and the row scratch of its Prepare, so a warm
// Simulator simulates a point without touching the heap. The zero value is
// ready to use. A Simulator is not safe for concurrent use; give each
// worker its own.
type Simulator struct {
	rep      hw.Report
	res      bundle.StratifyResult
	dSt, sSt hw.LinearStats
	walk     bundle.Walker
}

// Simulate walks p under opt, whose Shapes must be p's. The report and
// everything it references are owned by the Simulator and valid until its
// next Simulate call.
func (sim *Simulator) Simulate(p *Prepared, opt Options) *hw.Report {
	opt.normalize()
	if p.shapes != opt.Shapes() {
		panic("accel: statistics prepared at other bundle shapes")
	}
	sim.rep = hw.Report{Name: "Bishop", Tech: opt.Tech, Layers: sim.rep.Layers[:0]}
	for i := range p.layers {
		l := &p.layers[i]
		out := hw.LayerReport{Block: l.src.Block, Group: l.src.Group, Name: l.src.Name}
		if l.src.Kind == transformer.KindAttention {
			l.attention(opt, &out)
		} else {
			sim.linear(l, opt, &out)
		}
		sim.rep.Layers = append(sim.rep.Layers, out)
	}
	sim.rep.Finalize()
	return &sim.rep
}

func (sim *Simulator) linear(l *layer, opt Options, out *hw.LayerReport) {
	st := &l.lin
	neurons := int64(st.T) * int64(st.N) * int64(st.DOut)
	if !opt.Stratify {
		out.Dense = dense.Simulate(opt.Tech, opt.Array, *st)
		out.Dense.ChargeStatic(opt.Tech, hw.PowerOf("TTB dense core"))
		out.Result, out.Core = out.Dense, "dense"
		out.Result.Add(spikeGen(opt, neurons, false))
		return
	}
	theta := opt.ThetaS
	if theta < 0 {
		theta = bundle.SplitTheta(l.sorted, opt.SplitTarget)
	}
	bundle.StratifyCounts(st.ActivePerFeature, st.SpikesPerFeature, st.B, theta, &sim.res)
	st.SplitInto(sim.res, &sim.dSt, &sim.sSt)
	// The two cores process their partitions concurrently; the layer
	// completes when both have (latency = max), then the spike generator
	// merges partial sums.
	out.Dense = dense.Simulate(opt.Tech, opt.Array, sim.dSt)
	out.Sparse = sparse.Simulate(opt.Tech, opt.Array, sim.sSt)
	out.Dense.ChargeStatic(opt.Tech, hw.PowerOf("TTB dense core"))
	out.Sparse.ChargeStatic(opt.Tech, hw.PowerOf("TTB sparse core"))
	out.Result, out.Core = out.Dense, "dense+sparse"
	out.Result.Parallel(out.Sparse)
	// Stratifier: one tag comparison per feature, 32 lanes.
	out.Result.Cycles += hw.CeilDiv(int64(st.DIn), 32)
	out.Result.Add(spikeGen(opt, neurons, true))
}

func (l *layer) attention(opt Options, out *hw.LayerReport) {
	st := l.attn
	if opt.ECP != nil && l.q != nil {
		st.QTokensKept, st.QBundleRows = l.q.kept(opt.ECP.ThetaQ)
		st.KTokensKept, st.KBundleRows = l.k.kept(opt.ECP.ThetaK)
	}
	out.Result, out.Core = attention.Simulate(opt.Tech, opt.Array, st), "attention"
	out.Result.ChargeStatic(opt.Tech, hw.PowerOf("TTB attention core"))
	out.Result.Add(spikeGen(opt, int64(st.T)*int64(st.N)*int64(st.D), false))
}

func spikeGen(opt Options, neurons int64, merge bool) hw.Result {
	r := spikegen.Simulate(opt.Tech, opt.Array, neurons, merge)
	r.ChargeStatic(opt.Tech, hw.PowerOf("Spike generator"))
	return r
}
