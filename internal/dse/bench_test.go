package dse

import (
	"context"
	"testing"

	"repro/internal/bundle"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// BenchmarkSweepGrid regenerates the 12-point test grid through the full
// engine (trace cache hit, parallel evaluation, in-memory merge) — the
// per-point cost of a design-space sweep.
func BenchmarkSweepGrid(b *testing.B) {
	points := testSpace().Grid()
	Evaluate(points[0], 1) // warm the trace cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := Sweep(context.Background(), points, Config{Seed: 1})
		if err != nil || !rs.Complete() {
			b.Fatalf("sweep failed: %v", err)
		}
	}
}

// BenchmarkFrontier measures Pareto extraction over an evaluated grid.
func BenchmarkFrontier(b *testing.B) {
	rs, err := Sweep(context.Background(), testSpace().Grid(), Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Frontier(rs.Records)) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// BenchmarkSweepBishopGrid is the sweep rung of the benchmark ladder: the
// 120-point full-fidelity Bishop grid (Models 1–5 × BSA × shapes {4x2,
// 2x2} × {θ_s=−1 at split 0.25 or 0.75, θ_s=4} × ECP {0, 6}) over warm
// traces without a checkpoint, reporting points/s. Two workers on every
// host keep allocs/op comparable across core counts.
func BenchmarkSweepBishopGrid(b *testing.B) {
	points := Space{
		Models:       []int{1, 2, 3, 4, 5},
		BSA:          []bool{false, true},
		Shapes:       []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}},
		ThetaS:       []int{-1, 4},
		SplitTargets: []float64{0.25, 0.75},
		ECPThetas:    []int{0, 6},
	}.Grid()
	if len(points) != 120 {
		b.Fatalf("grid has %d points, want 120", len(points))
	}
	for m := 1; m <= 5; m++ { // warm the trace cache
		for _, bsa := range []bool{false, true} {
			workload.CachedTrace(transformer.ModelZoo()[m-1], workload.Scenarios()[m], workload.TraceOptions{BSA: bsa}, 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := Sweep(context.Background(), points, Config{Seed: 1, Jobs: 2})
		if err != nil || !rs.Complete() {
			b.Fatalf("sweep failed: %v", err)
		}
	}
	b.ReportMetric(float64(b.N*len(points))/b.Elapsed().Seconds(), "points/s")
}
