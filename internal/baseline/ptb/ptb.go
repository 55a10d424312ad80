// Package ptb models the Parallel Time Batching accelerator (HPCA'22 [27]),
// the paper's primary hardware baseline. PTB is a homogeneous systolic
// array for spiking CNN/FC workloads: it packs spiking activity across a
// window of up to 10 time points inside each PE, so multi-bit weights are
// reused *temporally* — but it has no token dimension. A transformer's
// matrix-matrix layers therefore execute as a serial sequence of per-token
// matrix-vector products, re-streaming the weight rows for every token
// (the "irregularly repeated weight accesses" of Fig. 4a). It has no
// heterogeneous sparse core, no dedicated attention engine (attention runs
// token-serially on multiplier PEs with attention scores round-tripping
// through the GLB), and no BSA/ECP co-design. Per §6.1 it is provisioned
// with the same PE count and per-PE resources as Bishop.
package ptb

import (
	"fmt"
	"math/bits"

	"repro/internal/canon"
	"repro/internal/hw"
	"repro/internal/hw/memory"
	"repro/internal/hw/spikegen"
	"repro/internal/spike"
	"repro/internal/transformer"
)

// Options configures the PTB model.
type Options struct {
	Tech       hw.Tech
	Array      hw.ArrayConfig
	TimeWindow int // time points batched inside each PE (lane count)
	// OutLanes is the number of output features produced in parallel:
	// 32 PE columns × 2 concurrent weight streams (512-bit GLB port limit).
	OutLanes int
}

// DefaultOptions returns the §6.1 equal-resource PTB configuration.
func DefaultOptions() Options {
	return Options{Tech: hw.Default28nm(), Array: hw.PTBArray(), TimeWindow: 10, OutLanes: 64}
}

func (o *Options) normalize() {
	if o.Tech.ClockHz == 0 {
		o.Tech = hw.Default28nm()
	}
	if o.Array.DensePEs == 0 {
		o.Array = hw.PTBArray()
	}
	if o.TimeWindow <= 0 {
		o.TimeWindow = 10
	}
	if o.OutLanes <= 0 {
		o.OutLanes = 64
	}
}

// Validate reports the first field of o the model cannot run, by name: an
// invalid Tech or array, or a negative lane count. Zero fields are legal —
// normalize treats them as "use the default" — and PTB's homogeneous array
// has no sparse or attention core to provision.
func (o Options) Validate() error {
	if err := o.Tech.Validate("Options.Tech"); err != nil {
		return err
	}
	if err := o.Array.Validate("Options.Array", true); err != nil {
		return err
	}
	if o.TimeWindow < 0 {
		return fmt.Errorf("Options.TimeWindow is negative (%d)", o.TimeWindow)
	}
	if o.OutLanes < 0 {
		return fmt.Errorf("Options.OutLanes is negative (%d)", o.OutLanes)
	}
	return nil
}

// Digest returns a stable fingerprint of the *normalized* configuration,
// following the accel.Options.Digest conventions.
func (o Options) Digest() uint64 {
	o.normalize()
	return canon.Digest(o)
}

// Simulate runs a trace through the PTB model.
func Simulate(tr *transformer.Trace, opt Options) *hw.Report {
	opt.normalize()
	rep := &hw.Report{Name: "PTB", Tech: opt.Tech}
	for _, l := range tr.Layers {
		switch l.Kind {
		case transformer.KindProjection, transformer.KindMLP:
			rep.Layers = append(rep.Layers, simulateLinear(l, opt))
		case transformer.KindAttention:
			rep.Layers = append(rep.Layers, simulateAttention(l, opt))
		}
	}
	rep.Finalize()
	return rep
}

// activeFeatures returns, for token n and the time window [t0,t1), the
// number of input features carrying at least one spike and the total spike
// count — the streaming beats and work of one matrix-vector pass. It ORs
// the packed token rows of the window into acc (a caller-provided scratch
// of s.WordsPerRow() words): the popcount of the union is the active
// feature count, and the per-row popcounts sum to the spike count.
func activeFeatures(s *spike.Tensor, n, t0, t1 int, acc []uint64) (feats, spikes int) {
	if t1 > s.T {
		t1 = s.T
	}
	for i := range acc {
		acc[i] = 0
	}
	for t := t0; t < t1; t++ {
		for i, w := range s.TokenWords(t, n) {
			acc[i] |= w
			spikes += bits.OnesCount64(w)
		}
	}
	for _, w := range acc {
		feats += bits.OnesCount64(w)
	}
	return feats, spikes
}

// simulateLinear executes an MLP/projection layer token-serially with
// time-window batching: for each token and window, the active input
// features stream through the array (one beat each, spikes within the
// window handled by the PE's 10 lanes) while the matching weight rows are
// re-fetched from the GLB.
func simulateLinear(l transformer.TraceLayer, opt Options) hw.LayerReport {
	t := opt.Tech
	in := l.In
	window := opt.TimeWindow
	nWindows := (in.T + window - 1) / window
	outTiles := hw.CeilDiv(int64(l.DOut), int64(opt.OutLanes))

	var beats, totalSpikes, weightGLB int64
	acc := make([]uint64, in.WordsPerRow())
	for n := 0; n < in.N; n++ {
		for w := 0; w < nWindows; w++ {
			f, s := activeFeatures(in, n, w*window, (w+1)*window, acc)
			beats += int64(f)
			totalSpikes += int64(s)
			// Weight rows for the active features are streamed again for
			// this token-window (no inter-token reuse).
			weightGLB += int64(f) * int64(l.DOut) * hw.WeightBytes
		}
	}
	computeCycles := beats * outTiles

	// Each time-window pass re-walks the weight matrix; when it exceeds the
	// (double-buffered) weight GLB it is re-fetched from DRAM per pass.
	weightBytes := int64(l.DIn) * int64(l.DOut) * hw.WeightBytes
	spill := memory.SpillFactor(weightBytes, memory.Bishop().WeightGLB, int64(nWindows))
	dram := weightBytes*spill +
		hw.CeilDiv(int64(in.T)*int64(in.N)*int64(in.D), 8) + // input spikes
		hw.CeilDiv(int64(in.T)*int64(in.N)*int64(l.DOut), 8) // output spikes
	memCycles := hw.CeilDiv(dram, int64(t.DRAMBytesPerCycle()))

	var r hw.Result
	r.Cycles = computeCycles
	if memCycles > r.Cycles {
		r.Cycles = memCycles
	}
	r.Cycles += int64(opt.Array.DenseRows) + int64(opt.Array.DenseCols)

	ops := totalSpikes * int64(l.DOut)
	r.OpsAcc = ops
	r.EPE = float64(ops) * (t.EMux + t.EAcc32 + t.EReg)
	spikeGLB := hw.CeilDiv(int64(in.T)*int64(in.N)*int64(in.D), 8)
	psum := int64(in.T) * int64(in.N) * int64(l.DOut) * hw.PsumBytes
	r.GLBBytes = weightGLB + spikeGLB + psum
	r.EGLB = float64(weightGLB)*hw.SRAMEnergyPerByte(hw.WeightGLBKB) +
		float64(spikeGLB+psum)*hw.SRAMEnergyPerByte(hw.SpikeGLBKB)
	r.DRAMBytes = dram
	r.EDRAM = float64(dram) * t.EDRAMPerByte
	r.ChargeStatic(t, hw.PTBTotalPowerMW*1e-3*0.7)

	r.Add(spikegen.Simulate(t, opt.Array, int64(in.T)*int64(in.N)*int64(l.DOut), false))
	return hw.LayerReport{Block: l.Block, Group: l.Group, Name: l.Name,
		Core: "systolic", Result: r}
}

// simulateAttention executes an SSA layer on PTB's generic array. With no
// attention engine, each time step's S = Q·Kᵀ runs as a sequence of
// per-query matrix-vector products (active Q features stream, N scores per
// pass), and Y = S·V streams the multi-bit scores with no sparsity
// skipping. Scores round-trip through the GLB between the two products.
func simulateAttention(l transformer.TraceLayer, opt Options) hw.LayerReport {
	t := opt.Tech
	q, k, v := l.Q, l.K, l.V
	T, N, D := int64(q.T), int64(q.N), int64(q.D)

	// Mode S: beats = active Q features per (t, token); outputs tile over N.
	// A single-step window's active-feature count is the token popcount.
	var qBeats int64
	for tt := 0; tt < q.T; tt++ {
		for n := 0; n < q.N; n++ {
			qBeats += int64(q.CountToken(tt, n))
		}
	}
	cyclesS := qBeats * hw.CeilDiv(N, int64(opt.OutLanes))
	// Mode Y: multi-bit scores stream with no skipping (N beats per query
	// token), outputs tiled over D. V is a binary spiking input, so PTB's
	// time batching applies: each PE's lanes process up to TimeWindow time
	// points of V concurrently.
	cyclesY := hw.CeilDiv(T, int64(opt.TimeWindow)) * N * N * hw.CeilDiv(D, int64(opt.OutLanes))
	computeCycles := cyclesS + cyclesY

	qkv := hw.CeilDiv(T*N*D, 8) * 3
	out := hw.CeilDiv(T*N*D, 8)
	dram := qkv + out
	memCycles := hw.CeilDiv(dram, int64(t.DRAMBytesPerCycle()))

	var r hw.Result
	r.Cycles = computeCycles
	if memCycles > r.Cycles {
		r.Cycles = memCycles
	}
	opsS := qBeats * N    // one MAC per streamed feature per score
	opsY := T * N * N * D // dense
	r.OpsMul = opsS + opsY
	r.EPE = float64(opsS+opsY) * (t.EMul8 + t.EAcc32 + t.EReg)
	sBytes := T * N * N * hw.ScoreBytes
	glb := qkv + 2*sBytes + T*N*D*hw.PsumBytes +
		// K and V are re-streamed for every query token's pass.
		hw.CeilDiv(int64(k.Count()+v.Count()), 8)*N
	r.GLBBytes = glb
	r.EGLB = float64(glb) * hw.SRAMEnergyPerByte(hw.SpikeGLBKB)
	r.DRAMBytes = dram
	r.EDRAM = float64(dram) * t.EDRAMPerByte
	r.ChargeStatic(t, hw.PTBTotalPowerMW*1e-3*0.7)

	r.Add(spikegen.Simulate(t, opt.Array, T*N*D, false))
	return hw.LayerReport{Block: l.Block, Group: l.Group, Name: l.Name,
		Core: "systolic", Result: r}
}
