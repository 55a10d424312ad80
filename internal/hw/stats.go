package hw

import (
	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/transformer"
)

// LinearStats summarizes one MLP/projection layer's spiking workload at TTB
// granularity: everything the dense/sparse core models need, with the raw
// tensors already reduced to counts.
type LinearStats struct {
	T, N, DIn, DOut int
	Shape           bundle.Shape
	B               int // bundle rows = ⌈T/BSt⌉·⌈N/BSn⌉

	ActivePerFeature []int // active bundles per input feature column
	SpikesPerFeature []int
	TotalSpikes      int
	ActiveBundles    int

	// MaxSpikesPerBundle[i] is the largest per-bundle spike count on input
	// feature i — the lockstep bound of the systolic dense core.
	MaxSpikesPerBundle []int
}

// NewLinearStats extracts the statistics of a projection/MLP layer with
// binary input in and a DIn×DOut weight matrix, bundled under sh.
func NewLinearStats(in *spike.Tensor, dout int, sh bundle.Shape) LinearStats {
	return WalkLinearStats(new(bundle.Walker), in, dout, sh)
}

// WalkLinearStats is NewLinearStats folding the input's tags one bundle row
// at a time on w's scratch: the form for callers that keep a Walker warm.
func WalkLinearStats(w *bundle.Walker, in *spike.Tensor, dout int, sh bundle.Shape) LinearStats {
	st := LinearStats{T: in.T, N: in.N, DIn: in.D, DOut: dout, Shape: sh,
		ActivePerFeature: make([]int, in.D), SpikesPerFeature: make([]int, in.D),
		MaxSpikesPerBundle: make([]int, in.D)}
	st.TotalSpikes, st.ActiveBundles = w.Features(in, sh, st.ActivePerFeature, st.SpikesPerFeature, st.MaxSpikesPerBundle)
	nbt, nbn := sh.Rows(in.T, in.N)
	st.B = nbt * nbn
	return st
}

// Split partitions the per-feature statistics by a stratification result,
// returning the dense-core and sparse-core sub-workloads.
func (s LinearStats) Split(res bundle.StratifyResult) (dense, sparse LinearStats) {
	var d, sp LinearStats
	s.SplitInto(res, &d, &sp)
	return d, sp
}

// SplitInto is Split writing into caller-held stats, reusing their
// per-feature slices across calls.
func (s *LinearStats) SplitInto(res bundle.StratifyResult, dense, sparse *LinearStats) {
	s.pickInto(res.Dense, dense)
	s.pickInto(res.Sparse, sparse)
}

func (s *LinearStats) pickInto(idx []int, out *LinearStats) {
	apf := out.ActivePerFeature[:0]
	spf := out.SpikesPerFeature[:0]
	msb := out.MaxSpikesPerBundle[:0]
	*out = *s
	out.TotalSpikes, out.ActiveBundles = 0, 0
	for _, d := range idx {
		apf = append(apf, s.ActivePerFeature[d])
		spf = append(spf, s.SpikesPerFeature[d])
		msb = append(msb, s.MaxSpikesPerBundle[d])
		out.TotalSpikes += s.SpikesPerFeature[d]
		out.ActiveBundles += s.ActivePerFeature[d]
	}
	out.ActivePerFeature, out.SpikesPerFeature, out.MaxSpikesPerBundle = apf, spf, msb
	out.DIn = len(idx)
}

// WeightDRAMBytes is the off-chip weight traffic of the layer: each 8-bit
// weight is fetched once (the GLB tiles it internally).
func (s LinearStats) WeightDRAMBytes() int64 {
	return int64(s.DIn) * int64(s.DOut) * WeightBytes
}

// ActivationDRAMBytes is the off-chip spike traffic: active bundles move as
// packed bit-vectors plus a tag byte; inactive bundles move nothing.
func (s LinearStats) ActivationDRAMBytes() int64 {
	bitsPerBundle := int64(s.Shape.Volume())
	return int64(s.ActiveBundles) * (ceilDiv(bitsPerBundle, 8) + 1)
}

// OutputDRAMBytes is the writeback of the produced binary spikes.
func (s LinearStats) OutputDRAMBytes() int64 {
	return ceilDiv(int64(s.T)*int64(s.N)*int64(s.DOut), 8)
}

// AttnStats summarizes one SSA layer's workload for the attention-core
// model, with ECP masks already folded into the kept-token counts.
type AttnStats struct {
	T, N, D, Heads int
	Shape          bundle.Shape

	QTokensKept, KTokensKept  int // Σ over time of surviving tokens
	QTokens, KTokens          int
	QSpikes, KSpikes, VSpikes int

	QBundleRows, KBundleRows int // surviving bundle rows (dispatch units)
}

// NewAttnStats extracts attention workload statistics from a traced SSA
// layer. When the trace carries ECP keep-masks they determine survival;
// otherwise everything is kept.
func NewAttnStats(l transformer.TraceLayer, sh bundle.Shape) AttnStats {
	q, k, v := l.Q, l.K, l.V
	st := AttnStats{
		T: q.T, N: q.N, D: q.D, Heads: l.Heads, Shape: sh,
		QTokens: q.T * q.N, KTokens: k.T * k.N,
		QSpikes: q.Count(), KSpikes: k.Count(), VSpikes: v.Count(),
	}
	count := func(mask [][]bool, total int) int {
		if mask == nil {
			return total
		}
		var c int
		for _, row := range mask {
			for _, keep := range row {
				if keep {
					c++
				}
			}
		}
		return c
	}
	st.QTokensKept = count(l.QKeep, st.QTokens)
	st.KTokensKept = count(l.KKeep, st.KTokens)

	nbt, nbn := sh.Rows(q.T, q.N)
	rows := func(mask [][]bool) int {
		if mask == nil {
			return nbt * nbn
		}
		var c int
		for bt := 0; bt < nbt; bt++ {
			for bn := 0; bn < nbn; bn++ {
				t0, n0 := bt*sh.BSt, bn*sh.BSn
				if t0 < len(mask) && n0 < len(mask[t0]) && mask[t0][n0] {
					c++
				}
			}
		}
		return c
	}
	st.QBundleRows = rows(l.QKeep)
	st.KBundleRows = rows(l.KKeep)
	return st
}

// QKeepFrac returns the surviving fraction of query tokens.
func (a AttnStats) QKeepFrac() float64 {
	if a.QTokens == 0 {
		return 1
	}
	return float64(a.QTokensKept) / float64(a.QTokens)
}

// KKeepFrac returns the surviving fraction of key tokens.
func (a AttnStats) KKeepFrac() float64 {
	if a.KTokens == 0 {
		return 1
	}
	return float64(a.KTokensKept) / float64(a.KTokens)
}

// QKVBits returns the packed size of the surviving Q, K, and V spike data in
// bits (V survival follows K per the inferential pruning of Fig. 7).
func (a AttnStats) QKVBits() (q, k, v int64) {
	perTokD := int64(a.D)
	q = int64(a.QTokensKept) * perTokD
	k = int64(a.KTokensKept) * perTokD
	v = int64(a.KTokensKept) * perTokD
	return q, k, v
}
