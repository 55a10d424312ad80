package main

import (
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/hw/attention"
	"repro/internal/hw/dense"
	"repro/internal/hw/sparse"
	"repro/internal/hw/spikegen"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// The traced run replays dse.EvaluateAt from the layers' public functions —
// workload.CachedTrace, hw.NewLinearStats, bundle.Tag and Stratify*,
// ECPConfig.Prune, hw.NewAttnStats, the core models and Backend.Simulate —
// with a span around each call. The replay must produce records
// byte-identical to the program's; every traced sweep is checked against
// the untraced records, so a replay that drifts from accel fails the run.

// simStats accumulates the simulated statistics that must not move:
// active bundles over all bundles of the linear layers' inputs, and features
// routed to the dense core over all stratified features.
type simStats struct {
	activeBundles, bundles  atomic.Int64
	denseFeatures, features atomic.Int64
	countSink               atomic.Int64 // keeps the replayed spike.Count calls live
}

func (s *simStats) activeBundleFrac() float64 { return ratio(s.activeBundles.Load(), s.bundles.Load()) }
func (s *simStats) denseFeatureFrac() float64 {
	return ratio(s.denseFeatures.Load(), s.features.Load())
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// evaluateTraced is dse.EvaluateAt at full fidelity, under a dse.evaluate
// span.
func evaluateTraced(t *tracer, parent int, p dse.Point, seed uint64, st *simStats) dse.Record {
	ev := t.begin("dse.evaluate", parent)
	defer t.end(ev)
	cfg := transformer.ModelZoo()[p.Model-1]
	tr := workload.CachedTrace(cfg, workload.Scenarios()[p.Model], workload.TraceOptions{BSA: p.BSA}, seed)
	rec := dse.Record{Digest: dse.DigestKey(p), Model: p.Model, BSA: p.BSA, Seed: seed}
	var rep *hw.Report
	if p.Backend == nil {
		opt := p.Opt
		rec.Opt = &opt
		rep = simulateTraced(t, ev, tr, opt, st)
	} else {
		rec.Backend = p.Backend.Name()
		data, err := p.Backend.EncodeOptions()
		if err != nil {
			panic(err) // grid points carry validated options
		}
		rec.BackendOpt = data
		t.do("backend."+rec.Backend, ev, func() { rep = p.Backend.Simulate(tr) })
	}
	order, totals := rep.GroupTotals()
	rec.LatencyMS, rec.EnergyMJ, rec.EDP = rep.LatencyMS(), rep.EnergyMJ(), rep.EDP()
	rec.Total, rec.GroupOrder, rec.Groups = rep.Total, order, totals
	return rec
}

// simulateTraced is accel.SimulateSeq under an accel.simulate span: the
// layer walk in trace order, tokenizer layers skipped.
func simulateTraced(t *tracer, parent int, tr *transformer.Trace, opt accel.Options, st *simStats) *hw.Report {
	sp := t.begin("accel.simulate", parent)
	defer t.end(sp)
	def := accel.DefaultOptions()
	if opt.Tech.ClockHz == 0 {
		opt.Tech = def.Tech
	}
	if opt.Array.DensePEs == 0 {
		opt.Array = def.Array
	}
	if opt.Shape.BSt == 0 {
		opt.Shape = def.Shape
	}
	if opt.SplitTarget == 0 {
		opt.SplitTarget = 0.5
	}
	rep := &hw.Report{Name: "Bishop", Tech: opt.Tech}
	for _, l := range tr.Layers {
		switch l.Kind {
		case transformer.KindProjection, transformer.KindMLP:
			rep.Layers = append(rep.Layers, linearTraced(t, sp, l, opt, st))
		case transformer.KindAttention:
			rep.Layers = append(rep.Layers, attentionTraced(t, sp, l, opt))
		}
	}
	rep.Finalize()
	return rep
}

func linearTraced(t *tracer, parent int, l transformer.TraceLayer, opt accel.Options, ss *simStats) hw.LayerReport {
	var st hw.LinearStats
	t.do("hw.linear_stats", parent, func() { st = hw.NewLinearStats(l.In, l.DOut, opt.Shape) })
	// NewLinearStats counts the input's spikes once; the replayed call
	// gives the kernel layer its own span.
	t.do("spike.count", parent, func() { ss.countSink.Add(int64(l.In.Count())) })
	ss.activeBundles.Add(int64(st.ActiveBundles))
	ss.bundles.Add(int64(st.B) * int64(st.DIn))
	out := hw.LayerReport{Block: l.Block, Group: l.Group, Name: l.Name}

	var r hw.Result
	if opt.Stratify {
		var tg *bundle.Tags
		t.do("bundle.tag", parent, func() { tg = bundle.Tag(l.In, opt.Shape) })
		var res bundle.StratifyResult
		t.do("bundle.stratify", parent, func() {
			if opt.ThetaS >= 0 {
				res = bundle.Stratify(tg, opt.ThetaS)
			} else {
				res = bundle.StratifyForSplit(tg, opt.SplitTarget)
			}
		})
		ss.denseFeatures.Add(int64(len(res.Dense)))
		ss.features.Add(int64(len(res.Dense) + len(res.Sparse)))
		dSt, sSt := st.Split(res)
		dr := dense.Simulate(opt.Tech, opt.Array, dSt)
		sr := sparse.Simulate(opt.Tech, opt.Array, sSt)
		dr.ChargeStatic(opt.Tech, hw.PowerOf("TTB dense core"))
		sr.ChargeStatic(opt.Tech, hw.PowerOf("TTB sparse core"))
		out.Dense, out.Sparse = dr, sr
		r = dr
		r.Parallel(sr)
		r.Cycles += hw.CeilDiv(int64(st.DIn), 32)
		r.Add(spikeGen(opt, int64(st.T)*int64(st.N)*int64(st.DOut), true))
		out.Core = "dense+sparse"
	} else {
		dr := dense.Simulate(opt.Tech, opt.Array, st)
		dr.ChargeStatic(opt.Tech, hw.PowerOf("TTB dense core"))
		out.Dense = dr
		r = dr
		r.Add(spikeGen(opt, int64(st.T)*int64(st.N)*int64(st.DOut), false))
		out.Core = "dense"
	}
	out.Result = r
	return out
}

func attentionTraced(t *tracer, parent int, l transformer.TraceLayer, opt accel.Options) hw.LayerReport {
	if opt.ECP != nil && l.QKeep == nil {
		t.do("bundle.ecp_prune", parent, func() {
			qm, km, _ := opt.ECP.Prune(l.Q, l.K)
			l.QKeep, l.KKeep = qm, km
		})
	}
	var st hw.AttnStats
	t.do("hw.attn_stats", parent, func() { st = hw.NewAttnStats(l, opt.Shape) })
	r := attention.Simulate(opt.Tech, opt.Array, st)
	r.ChargeStatic(opt.Tech, hw.PowerOf("TTB attention core"))
	r.Add(spikeGen(opt, int64(st.T)*int64(st.N)*int64(st.D), false))
	return hw.LayerReport{Block: l.Block, Group: l.Group, Name: l.Name, Core: "attention", Result: r}
}

func spikeGen(opt accel.Options, neurons int64, merge bool) hw.Result {
	r := spikegen.Simulate(opt.Tech, opt.Array, neurons, merge)
	r.ChargeStatic(opt.Tech, hw.PowerOf("Spike generator"))
	return r
}
