package bundle

import (
	"sort"

	"repro/internal/spike"
)

// ECPConfig parameterizes Error-Constrained TTB Pruning (§5.1). A bundle
// row (bt, bn) of the query tensor is pruned when its active-bundle count
// n_ab across all features is below ThetaQ; the same rule with ThetaK prunes
// key rows. Because Q and K are binary, every entry of the attention map
// S = Q·Kᵀ produced by a pruned row is provably < θ, which is the
// error bound the name refers to.
type ECPConfig struct {
	Shape  Shape
	ThetaQ int
	ThetaK int
}

// ECPStats summarizes one application of ECP, feeding both the hardware
// model (how much attention work remains) and the evaluation tables.
type ECPStats struct {
	QRowsKept, QRowsTotal int // bundle rows
	KRowsKept, KRowsTotal int
	QTokensKept, QTokens  int // token-time slots
	KTokensKept, KTokens  int
}

// QKeepFrac returns the surviving fraction of Q token-time slots.
func (s ECPStats) QKeepFrac() float64 { return frac(s.QTokensKept, s.QTokens) }

// KKeepFrac returns the surviving fraction of K token-time slots.
func (s ECPStats) KKeepFrac() float64 { return frac(s.KTokensKept, s.KTokens) }

// ScoreWorkFrac returns the fraction of attention-map work remaining after
// the compounding row×column pruning of Fig. 7 (e.g. 20% Q × 10% K → 2%).
func (s ECPStats) ScoreWorkFrac() float64 { return s.QKeepFrac() * s.KKeepFrac() }

func frac(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// pruneRows computes the keep-mask for one tensor given a threshold: bundle
// row (bt, bn) survives iff n_ab ≥ theta. The mask is expanded to (t, n)
// token granularity for the attention computation; its rows view a single
// backing slice.
func pruneRows(w *Walker, s *spike.Tensor, sh Shape, theta int) (keep [][]bool, rowsKept, rowsTotal, tokKept int) {
	nab := w.ActiveRows(s, sh)
	_, nbn := sh.Rows(s.T, s.N)
	bits := make([]bool, s.T*s.N)
	keep = make([][]bool, s.T)
	for t := range keep {
		keep[t] = bits[t*s.N : (t+1)*s.N]
	}
	for b, active := range nab {
		if active < theta {
			continue // pruned
		}
		rowsKept++
		t0, n0 := b/nbn*sh.BSt, b%nbn*sh.BSn
		for t := t0; t < min(t0+sh.BSt, s.T); t++ {
			for n := n0; n < min(n0+sh.BSn, s.N); n++ {
				keep[t][n] = true
				tokKept++
			}
		}
	}
	return keep, rowsKept, len(nab), tokKept
}

// Prune applies ECP to a spiking query/key pair and returns the token
// keep-masks plus statistics. It satisfies the transformer.PruneFn contract
// (the masks zero S rows/columns, which inferentially prunes V and Y per
// Fig. 7).
func (c ECPConfig) Prune(q, k *spike.Tensor) (qKeep, kKeep [][]bool, stats ECPStats) {
	var w Walker
	qKeep, qrk, qrt, qtk := pruneRows(&w, q, c.Shape, c.ThetaQ)
	kKeep, krk, krt, ktk := pruneRows(&w, k, c.Shape, c.ThetaK)
	stats = ECPStats{
		QRowsKept: qrk, QRowsTotal: qrt, QTokensKept: qtk, QTokens: q.T * q.N,
		KRowsKept: krk, KRowsTotal: krt, KTokensKept: ktk, KTokens: k.T * k.N,
	}
	return qKeep, kKeep, stats
}

// PruneFn adapts the config to the transformer.PruneFn signature, recording
// cumulative statistics across blocks in stats (which may be nil).
func (c ECPConfig) PruneFn(stats *ECPStats) func(q, k *spike.Tensor) ([][]bool, [][]bool) {
	return func(q, k *spike.Tensor) ([][]bool, [][]bool) {
		qm, km, s := c.Prune(q, k)
		if stats != nil {
			stats.QRowsKept += s.QRowsKept
			stats.QRowsTotal += s.QRowsTotal
			stats.KRowsKept += s.KRowsKept
			stats.KRowsTotal += s.KRowsTotal
			stats.QTokensKept += s.QTokensKept
			stats.QTokens += s.QTokens
			stats.KTokensKept += s.KTokensKept
			stats.KTokens += s.KTokens
		}
		return qm, km
	}
}

// ThetaForKeepFraction returns a pruning threshold θ that keeps at least
// the given fraction of s's bundle rows: the (1-keep)-quantile of the
// per-row active-bundle counts n_ab. Rows strictly below the quantile are
// pruned; ties survive, so a uniform-activity tensor is never pruned to
// zero. It converts the paper's absolute thresholds (which presume its
// trained full-size firing rates) into a parameterization portable across
// model widths.
func ThetaForKeepFraction(s *spike.Tensor, sh Shape, keep float64) int {
	if keep >= 1 {
		return 0
	}
	sorted := new(Walker).ActiveRows(s, sh)
	sort.Ints(sorted)
	idx := int((1 - keep) * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// MaxScoreOfPruned returns the maximum attention-map entry (Σ_d Q∧K over
// features, the pre-scale integer score) that any *pruned* Q token would
// have produced against any K token — used to verify the ECP error bound
// empirically: it is always < ThetaQ.
func MaxScoreOfPruned(q, k *spike.Tensor, qKeep [][]bool) int {
	maxS := 0
	for t := 0; t < q.T; t++ {
		for n := 0; n < q.N; n++ {
			if qKeep[t][n] {
				continue
			}
			for m := 0; m < k.N; m++ {
				if s := q.TokenAndCount(t, n, k, t, m); s > maxS {
					maxS = s
				}
			}
		}
	}
	return maxS
}
