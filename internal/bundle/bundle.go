// Package bundle implements the paper's central data-management concepts:
//
//   - spiking Token-Time Bundles (TTBs, §3.2): fixed-size containers packing
//     BSn tokens × BSt time points of binary activations for one feature,
//     together with their L0 activity tags (Eq. 9);
//   - the workload stratifier of Alg. 1 that splits features into dense and
//     sparse sets for the heterogeneous cores;
//   - Error-Constrained TTB Pruning (ECP, §5.1) of spiking queries and keys
//     with its provable attention-score error bound.
package bundle

import (
	"fmt"
	"slices"

	"repro/internal/spike"
)

// Shape is the TTB bundle volume: BSt time points × BSn tokens (Fig. 4).
type Shape struct {
	BSt, BSn int
}

// DefaultShape is the (4, 2) volume used by the main evaluation; Fig. 16
// shows volumes between 4 and 8 are near-optimal.
var DefaultShape = Shape{BSt: 4, BSn: 2}

// Volume returns BSt·BSn, the number of spatiotemporal slots per bundle.
func (s Shape) Volume() int { return s.BSt * s.BSn }

// maxDim bounds each bundle dimension, so bundle counts and volumes stay
// far inside int.
const maxDim = 1 << 16

// Validate reports a shape the tagger cannot run: a dimension outside
// 1–2^16.
func (s Shape) Validate() error {
	if s.BSt < 1 || s.BSn < 1 || s.BSt > maxDim || s.BSn > maxDim {
		return fmt.Errorf("bundle: invalid shape %+v: BSt and BSn must be in 1–2^16", s)
	}
	return nil
}

func (s Shape) validate() {
	if err := s.Validate(); err != nil {
		panic(err.Error())
	}
}

// Rows returns the bundle-row grid of a T×N token plane: ⌈T/BSt⌉ × ⌈N/BSn⌉.
func (s Shape) Rows(t, n int) (nbt, nbn int) {
	return (t + s.BSt - 1) / s.BSt, (n + s.BSn - 1) / s.BSn
}

// Tags holds the L0 activity tags Z of every bundle of a spike tensor
// (Eq. 9): Counts[(bt·NBn+bn)·D+d] is the number of spikes packed in bundle
// (bt, bn) of feature d.
type Tags struct {
	Shape    Shape
	T, N, D  int
	NBt, NBn int
	Counts   []int
	nab      []int // each bundle row's n_ab: the popcount of its walked mask
}

// Tag computes the bundle activity tags of s under the given bundle shape:
// the Walker's row scan with each bundle row's slice of Counts as its row
// counter, so every set bit of the tensor increments one tag.
func Tag(s *spike.Tensor, sh Shape) *Tags {
	var w Walker
	nbt, nbn := w.start(s, sh)
	tg := &Tags{Shape: sh, T: s.T, N: s.N, D: s.D, NBt: nbt, NBn: nbn,
		Counts: make([]int, nbt*nbn*s.D), nab: make([]int, nbt*nbn)}
	for b := range tg.nab {
		tg.nab[b] = w.scan(s, sh, nbn, b, tg.Counts[b*s.D:(b+1)*s.D])
	}
	return tg
}

// Count returns the L0 tag of bundle (bt, bn, d).
func (tg *Tags) Count(bt, bn, d int) int {
	return tg.Counts[(bt*tg.NBn+bn)*tg.D+d]
}

// Active reports whether bundle (bt, bn, d) contains at least one spike.
func (tg *Tags) Active(bt, bn, d int) bool { return tg.Count(bt, bn, d) > 0 }

// TotalBundles returns the number of bundles per feature times D.
func (tg *Tags) TotalBundles() int { return tg.NBt * tg.NBn * tg.D }

// ActiveBundles returns the total number of active bundles.
func (tg *Tags) ActiveBundles() int {
	var c int
	for _, v := range tg.Counts {
		if v > 0 {
			c++
		}
	}
	return c
}

// BundleDensity is the fraction of bundles that are active — the "TTB
// density" reported in Fig. 6.
func (tg *Tags) BundleDensity() float64 {
	return float64(tg.ActiveBundles()) / float64(tg.TotalBundles())
}

// SpikeCount returns the total number of spikes (the Σ of all tags), which
// equals the L_bsp contribution of this tensor (Eq. 10).
func (tg *Tags) SpikeCount() int {
	var c int
	for _, v := range tg.Counts {
		c += v
	}
	return c
}

// ActivePerFeature returns, for each feature d, the number of active bundles
// in its column. This is the per-feature statistic histogrammed in Fig. 5
// and the column sparsity Alg. 1 thresholds on.
func (tg *Tags) ActivePerFeature() []int {
	out := make([]int, tg.D)
	for b := 0; b < tg.NBt*tg.NBn; b++ {
		for d, c := range tg.Counts[b*tg.D : (b+1)*tg.D] {
			if c > 0 {
				out[d]++
			}
		}
	}
	return out
}

// SpikesPerFeature returns the raw spike count per feature column.
func (tg *Tags) SpikesPerFeature() []int {
	out := make([]int, tg.D)
	for b := 0; b < tg.NBt*tg.NBn; b++ {
		for d, c := range tg.Counts[b*tg.D : (b+1)*tg.D] {
			out[d] += c
		}
	}
	return out
}

// ActivePerRow returns n_ab for each bundle row (bt, bn): the number of
// features whose bundle in that row is active. This is the quantity ECP
// compares against the pruning threshold θ_p (§5.1). Tag records it from
// each row's walked mask.
func (tg *Tags) ActivePerRow() []int { return slices.Clone(tg.nab) }

// FeatureActivityHistogram buckets features by their active-bundle count
// into nBuckets equal ranges over [0, maxActive], returning the fraction of
// features per bucket — the "ratio of features vs # active bundles"
// distribution of Fig. 5.
func (tg *Tags) FeatureActivityHistogram(nBuckets int) []float64 {
	per := tg.ActivePerFeature()
	maxA := tg.NBt * tg.NBn
	hist := make([]float64, nBuckets)
	for _, a := range per {
		b := a * nBuckets / (maxA + 1)
		if b >= nBuckets {
			b = nBuckets - 1
		}
		hist[b]++
	}
	for i := range hist {
		hist[i] /= float64(tg.D)
	}
	return hist
}

// ZeroFeatureFraction returns the fraction of features with no active
// bundle at all (52.2% for Model 1 with BSA in Fig. 5), which enables
// structured pruning of their weights.
func (tg *Tags) ZeroFeatureFraction() float64 {
	var z int
	for _, a := range tg.ActivePerFeature() {
		if a == 0 {
			z++
		}
	}
	return float64(z) / float64(tg.D)
}

// StratifyResult is the output of Alg. 1: the feature-index buffers R_D and
// R_S routing each input feature's bundles (and the matching weight rows) to
// the dense or sparse core.
type StratifyResult struct {
	Theta          int   // threshold used
	Dense, Sparse  []int // feature indices (ascending)
	DenseSpikes    int   // spikes routed to the dense core
	SparseSpikes   int
	DenseBundles   int // active bundles routed to the dense core
	SparseBundles  int
	BundlesPerFeat int // total bundles per feature column
}

// Stratify implements Alg. 1: feature i goes to the dense set when its
// column's active-bundle count exceeds θ_s, otherwise to the sparse set.
func Stratify(tg *Tags, theta int) StratifyResult {
	var res StratifyResult
	StratifyCounts(tg.ActivePerFeature(), tg.SpikesPerFeature(), tg.NBt*tg.NBn, theta, &res)
	return res
}

// StratifyCounts is the counts-based core of Alg. 1: feature d goes to the
// dense set when active[d], its column's active-bundle count, exceeds θ_s.
// spikes[d] is the column's spike count and bundlesPerFeat the number of
// bundles in every column. Callers holding precomputed per-feature counts
// stratify through it without re-tagging; res's index slices are reused.
func StratifyCounts(active, spikes []int, bundlesPerFeat, theta int, res *StratifyResult) {
	*res = StratifyResult{
		Theta: theta, BundlesPerFeat: bundlesPerFeat,
		Dense: res.Dense[:0], Sparse: res.Sparse[:0],
	}
	for d, a := range active {
		if a > theta {
			res.Dense = append(res.Dense, d)
			res.DenseSpikes += spikes[d]
			res.DenseBundles += a
		} else {
			res.Sparse = append(res.Sparse, d)
			res.SparseSpikes += spikes[d]
			res.SparseBundles += a
		}
	}
}

// DenseFraction returns the fraction of features routed to the dense core.
func (r StratifyResult) DenseFraction() float64 {
	total := len(r.Dense) + len(r.Sparse)
	if total == 0 {
		return 0
	}
	return float64(len(r.Dense)) / float64(total)
}

// DenseDensity returns the mean bundle density of the dense partition (the
// "stratified down" density of Fig. 6); SparseDensity the sparse partition's.
func (r StratifyResult) DenseDensity() float64 {
	if len(r.Dense) == 0 {
		return 0
	}
	return float64(r.DenseBundles) / float64(len(r.Dense)*r.BundlesPerFeat)
}

// SparseDensity returns the mean bundle density of the sparse partition.
func (r StratifyResult) SparseDensity() float64 {
	if len(r.Sparse) == 0 {
		return 0
	}
	return float64(r.SparseBundles) / float64(len(r.Sparse)*r.BundlesPerFeat)
}

// StratifyForSplit picks the θ_s that routes approximately targetDenseFrac
// of the features to the dense core — the per-layer balancing strategy of
// §6.5.1 — and returns the resulting stratification.
func StratifyForSplit(tg *Tags, targetDenseFrac float64) StratifyResult {
	active := tg.ActivePerFeature()
	theta := SplitTheta(slices.Sorted(slices.Values(active)), targetDenseFrac)
	var res StratifyResult
	StratifyCounts(active, tg.SpikesPerFeature(), tg.NBt*tg.NBn, theta, &res)
	return res
}

// SplitTheta returns the θ_s of the §6.5.1 balancing rule, the threshold
// that routes approximately targetDenseFrac of the features to the dense
// core, given the per-feature active-bundle counts sorted ascending. The
// counts are indexed from the top, which selects the exact θ of the
// descending-order formulation: the k-th most active feature's count sits
// at sorted[len-k].
func SplitTheta(sorted []int, targetDenseFrac float64) int {
	n := len(sorted)
	k := int(targetDenseFrac*float64(n) + 0.5)
	switch {
	case k <= 0:
		return sorted[n-1] // nothing dense
	case k >= n:
		return -1 // everything dense
	}
	// Zero-activity feature columns never justify dense-core slots: keep
	// them on the sparse side even when the target asks for more dense
	// features than there are active ones.
	return max(sorted[n-k]-1, 0)
}
