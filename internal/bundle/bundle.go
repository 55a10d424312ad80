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
	"math/bits"
	"slices"

	"repro/internal/spike"
)

// resizeInts returns dst resized to n zeroed elements, reusing its backing
// array when the capacity allows — the shared scratch idiom of the Into
// variants below.
func resizeInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

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

// Tags holds the L0 activity tags Z of every bundle of a spike tensor
// (Eq. 9): Counts[(bt·NBn+bn)·D+d] is the number of spikes packed in bundle
// (bt, bn) of feature d.
type Tags struct {
	Shape    Shape
	T, N, D  int
	NBt, NBn int
	Counts   []int
}

// Tag computes the bundle activity tags of s under the given bundle shape.
// Instead of one bit-loop per (feature, bundle) pair, it makes a single
// word-scan pass over the tensor: each (t, n) token row belongs to exactly
// one bundle row, so every set bit increments one tag — O(words + spikes)
// rather than O(T·N·D) bounds-checked Gets.
func Tag(s *spike.Tensor, sh Shape) *Tags {
	tg := &Tags{}
	tg.Retag(s, sh)
	return tg
}

// Retag recomputes the tags of s into tg, reusing the Counts buffer when
// its capacity suffices. It is the zero-alloc form of Tag for steady-state
// simulation loops.
func (tg *Tags) Retag(s *spike.Tensor, sh Shape) {
	sh.validate()
	nbt := (s.T + sh.BSt - 1) / sh.BSt
	nbn := (s.N + sh.BSn - 1) / sh.BSn
	tg.Shape, tg.T, tg.N, tg.D, tg.NBt, tg.NBn = sh, s.T, s.N, s.D, nbt, nbn
	tg.Counts = resizeInts(tg.Counts, nbt*nbn*s.D)
	for t := 0; t < s.T; t++ {
		btBase := (t / sh.BSt) * nbn
		for n := 0; n < s.N; n++ {
			counts := tg.Counts[(btBase+n/sh.BSn)*s.D:]
			for wi, w := range s.TokenWords(t, n) {
				base := wi << 6
				for w != 0 {
					counts[base+bits.TrailingZeros64(w)]++
					w &= w - 1
				}
			}
		}
	}
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
	return tg.ActivePerFeatureInto(nil)
}

// ActivePerFeatureInto is ActivePerFeature writing into dst (resized and
// reused when capacity allows).
func (tg *Tags) ActivePerFeatureInto(dst []int) []int {
	out := resizeInts(dst, tg.D)
	for b := 0; b < tg.NBt*tg.NBn; b++ {
		base := b * tg.D
		for d := 0; d < tg.D; d++ {
			if tg.Counts[base+d] > 0 {
				out[d]++
			}
		}
	}
	return out
}

// SpikesPerFeature returns the raw spike count per feature column.
func (tg *Tags) SpikesPerFeature() []int {
	return tg.SpikesPerFeatureInto(nil)
}

// SpikesPerFeatureInto is SpikesPerFeature writing into dst (resized and
// reused when capacity allows).
func (tg *Tags) SpikesPerFeatureInto(dst []int) []int {
	out := resizeInts(dst, tg.D)
	for b := 0; b < tg.NBt*tg.NBn; b++ {
		base := b * tg.D
		for d := 0; d < tg.D; d++ {
			out[d] += tg.Counts[base+d]
		}
	}
	return out
}

// ActivePerRow returns n_ab for each bundle row (bt, bn): the number of
// features whose bundle in that row is active. This is the quantity ECP
// compares against the pruning threshold θ_p (§5.1).
func (tg *Tags) ActivePerRow() []int {
	out := make([]int, tg.NBt*tg.NBn)
	for b := range out {
		base := b * tg.D
		for d := 0; d < tg.D; d++ {
			if tg.Counts[base+d] > 0 {
				out[b]++
			}
		}
	}
	return out
}

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

// StratifyScratch holds the per-feature working buffers of the stratifier
// so steady-state simulation loops can run it without allocating.
type StratifyScratch struct {
	active, spikes, sorted []int
}

// Stratify implements Alg. 1: feature i goes to the dense set when its
// column's active-bundle count exceeds θ_s, otherwise to the sparse set.
func Stratify(tg *Tags, theta int) StratifyResult {
	var res StratifyResult
	StratifyInto(tg, theta, &StratifyScratch{}, &res)
	return res
}

// StratifyInto is Stratify reusing the scratch buffers and the index
// slices already held by res.
func StratifyInto(tg *Tags, theta int, sc *StratifyScratch, res *StratifyResult) {
	sc.active = tg.ActivePerFeatureInto(sc.active)
	sc.spikes = tg.SpikesPerFeatureInto(sc.spikes)
	StratifyCounts(sc.active, sc.spikes, tg.NBt*tg.NBn, theta, res)
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
	var res StratifyResult
	StratifyForSplitInto(tg, targetDenseFrac, &StratifyScratch{}, &res)
	return res
}

// StratifyForSplitInto is StratifyForSplit reusing scratch buffers.
func StratifyForSplitInto(tg *Tags, targetDenseFrac float64, sc *StratifyScratch, res *StratifyResult) {
	sc.active = tg.ActivePerFeatureInto(sc.active)
	sc.spikes = tg.SpikesPerFeatureInto(sc.spikes)
	sc.sorted = append(sc.sorted[:0], sc.active...)
	slices.Sort(sc.sorted)
	StratifyCounts(sc.active, sc.spikes, tg.NBt*tg.NBn, SplitTheta(sc.sorted, targetDenseFrac), res)
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
