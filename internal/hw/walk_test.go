package hw

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/tensor"
)

// gridStats is the reference the bundle-row walk must reproduce: build the
// whole B×D tag grid bit by bit, then reduce it to the layer statistics and
// to each bundle row's n_ab (the reduction the simulator ran before it
// folded rows straight into the statistics).
func gridStats(in *spike.Tensor, dout int, sh bundle.Shape) (st LinearStats, counts, nab []int) {
	nbt, nbn := sh.Rows(in.T, in.N)
	counts = make([]int, nbt*nbn*in.D)
	for t := 0; t < in.T; t++ {
		for n := 0; n < in.N; n++ {
			for d := 0; d < in.D; d++ {
				if in.Get(t, n, d) {
					counts[(t/sh.BSt*nbn+n/sh.BSn)*in.D+d]++
				}
			}
		}
	}
	st = LinearStats{T: in.T, N: in.N, DIn: in.D, DOut: dout, Shape: sh, B: nbt * nbn,
		ActivePerFeature: make([]int, in.D), SpikesPerFeature: make([]int, in.D),
		MaxSpikesPerBundle: make([]int, in.D)}
	nab = make([]int, st.B)
	for b := 0; b < st.B; b++ {
		for d, c := range counts[b*in.D : (b+1)*in.D] {
			if c == 0 {
				continue
			}
			st.ActivePerFeature[d]++
			st.SpikesPerFeature[d] += c
			st.MaxSpikesPerBundle[d] = max(st.MaxSpikesPerBundle[d], c)
			st.TotalSpikes += c
			st.ActiveBundles++
			nab[b]++
		}
	}
	return st, counts, nab
}

// TestRowWalkMatchesTagGrid: the walked LinearStats, the walked per-row
// n_ab and the grid Tag builds equal the reference grid reduction for ragged
// token planes (T and N not multiples of the bundle shape), feature counts
// on and around word boundaries, every bundle shape from 1x1 to 16x16, and
// empty, random and saturated tensors. One Walker serves every case, so its
// scratch is reused across growing and shrinking D.
func TestRowWalkMatchesTagGrid(t *testing.T) {
	rng := tensor.NewRNG(15)
	var w bundle.Walker
	for _, sh := range []bundle.Shape{{BSt: 1, BSn: 1}, {BSt: 2, BSn: 2}, {BSt: 4, BSn: 2}, {BSt: 3, BSn: 5}, {BSt: 16, BSn: 16}} {
		for _, d := range []int{1, 63, 64, 65, 130, 384} {
			for _, fill := range []string{"zero", "random", "one"} {
				in := spike.NewTensor(2*sh.BSt+1, 3*sh.BSn-1, d)
				p := map[string]float64{"zero": 0, "random": 0.02 + 0.3*rng.Float64(), "one": 1}[fill]
				for t := 0; t < in.T; t++ {
					for n := 0; n < in.N; n++ {
						for f := 0; f < in.D; f++ {
							in.Set(t, n, f, p == 1 || rng.Float64() < p)
						}
					}
				}
				name := fmt.Sprintf("%dx%d/D=%d/%s", sh.BSt, sh.BSn, d, fill)
				want, counts, nab := gridStats(in, 7, sh)
				if got := WalkLinearStats(&w, in, 7, sh); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: walked stats %+v, grid %+v", name, got, want)
				}
				if got := NewLinearStats(in, 7, sh); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: NewLinearStats %+v, grid %+v", name, got, want)
				}
				if got := w.ActiveRows(in, sh); !reflect.DeepEqual(got, nab) {
					t.Fatalf("%s: walked n_ab %v, grid %v", name, got, nab)
				}
				tg := bundle.Tag(in, sh)
				if !reflect.DeepEqual(tg.Counts, counts) || !reflect.DeepEqual(tg.ActivePerRow(), nab) {
					t.Fatalf("%s: Tag grid or its n_ab differs from the reference", name)
				}
			}
		}
	}
}
