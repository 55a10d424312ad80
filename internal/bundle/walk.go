package bundle

import (
	"math/bits"

	"repro/internal/spike"
)

// Walker reduces a spike tensor's bundle tags (Eq. 9) one bundle row
// (bt, bn) at a time, never holding the B×D grid Tag builds. Its scratch is
// one row's OR mask (⌈D/64⌉ words: bit d set iff feature d's bundle is
// active) and a D-length row counter that is all zero between rows. The
// zero value is ready to use and keeps its scratch across walks; a Walker
// is not safe for concurrent use.
type Walker struct {
	mask []uint64
	cnt  []int
}

// start validates sh, sizes the mask for s and returns s's bundle-row grid.
func (w *Walker) start(s *spike.Tensor, sh Shape) (nbt, nbn int) {
	sh.validate()
	if n := s.WordsPerRow(); cap(w.mask) < n {
		w.mask = make([]uint64, n)
	} else {
		w.mask = w.mask[:n]
	}
	return sh.Rows(s.T, s.N)
}

// scan ORs the token words of bundle row b = bt·nbn+bn into w.mask and,
// when cnt is non-nil, adds each spike of feature d to cnt[d]. It returns
// the row's n_ab, the popcount of the mask.
func (w *Walker) scan(s *spike.Tensor, sh Shape, nbn, b int, cnt []int) (nab int) {
	mask, wpr, words := w.mask, len(w.mask), s.Words()
	clear(mask)
	t0, n0 := b/nbn*sh.BSt, b%nbn*sh.BSn
	n1 := min(n0+sh.BSn, s.N)
	for t := t0; t < min(t0+sh.BSt, s.T); t++ {
		// The row's tokens at time t are adjacent in the packed words.
		for i := (t*s.N + n0) * wpr; i < (t*s.N+n1)*wpr; i += wpr {
			tok := words[i : i+wpr : i+wpr]
			for wi, x := range tok {
				mask[wi] |= x
				if cnt == nil {
					continue
				}
				for base := wi << 6; x != 0; x &= x - 1 {
					cnt[base+bits.TrailingZeros64(x)]++
				}
			}
		}
	}
	for _, x := range mask {
		nab += bits.OnesCount64(x)
	}
	return nab
}

// Features folds s's tags under sh into per-feature statistics: for every
// feature d, active[d] counts its active bundles, spikes[d] its spikes and
// maxSpikes[d] its largest bundle tag. The three slices must be zero and of
// length s.D. It returns the tensor's spike and active-bundle totals.
func (w *Walker) Features(s *spike.Tensor, sh Shape, active, spikes, maxSpikes []int) (totalSpikes, activeBundles int) {
	nbt, nbn := w.start(s, sh)
	if cap(w.cnt) < s.D {
		w.cnt = make([]int, s.D) // every walk re-zeroes the cells it touches
	}
	cnt := w.cnt[:s.D]
	for b := 0; b < nbt*nbn; b++ {
		activeBundles += w.scan(s, sh, nbn, b, cnt)
		for wi, x := range w.mask {
			for base := wi << 6; x != 0; x &= x - 1 {
				d := base + bits.TrailingZeros64(x)
				c := cnt[d]
				cnt[d] = 0
				active[d]++
				spikes[d] += c
				maxSpikes[d] = max(maxSpikes[d], c)
				totalSpikes += c
			}
		}
	}
	return totalSpikes, activeBundles
}

// ActiveRows returns n_ab for each bundle row b = bt·NBn+bn of s under sh:
// the number of features whose bundle in that row is active, the quantity
// ECP thresholds (§5.1). It needs no spike counts, only each row's mask.
func (w *Walker) ActiveRows(s *spike.Tensor, sh Shape) []int {
	nbt, nbn := w.start(s, sh)
	nab := make([]int, nbt*nbn)
	for b := range nab {
		nab[b] = w.scan(s, sh, nbn, b, nil)
	}
	return nab
}
