package dse

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/bundle"
)

// TestIdentityDigestPins pins the absolute digests the result cache and
// the daemon key on beyond the bishop sample stream: a ptb and a gpu point,
// a select-restricted sweep spec and a search spec.
func TestIdentityDigestPins(t *testing.T) {
	sweep := SweepSpec{
		Space:  Space{Models: []int{4}, Backends: []string{"bishop", "ptb", "gpu"}, Shapes: []bundle.Shape{{BSt: 4, BSn: 2}}},
		Seed:   3,
		Select: []string{"89abcdef01234567", "0123456789abcdef"},
	}
	search := SearchSpec{
		Space:     Space{Models: []int{2, 4}, ECPThetas: []int{0, 6}},
		Rungs:     []int{4, 1},
		Objective: "pareto",
	}
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"ptb point", digestKey(Point{Model: 2, BSA: true, Backend: backend.PTB{Opt: ptb.Options{TimeWindow: 4, OutLanes: 32}}}), "caf27e9706343fc8"},
		{"gpu point", digestKey(Point{Model: 5, Backend: backend.GPU{Opt: gpu.DefaultOptions()}}), "a2cdfe22821fcdcb"},
		{"sweep spec", sweep.ID(), "c806fcfbba475e7f"},
		{"search spec", search.ID(), "2b7b92994b12322c"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
