package dse

// Tests for the sweep's shared simulation state: records from statistics
// shared across a sweep's points are byte-identical to standalone
// EvaluateAt records and to the legacy golden checkpoint, each (trace,
// shape) pair is prepared exactly once per sweep, sweeps that simulate no
// Bishop point prepare nothing, and records commit in enumeration order.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/transformer"
)

// sharedSpace crosses every axis the shared statistics must be neutral to:
// two models × both shapes × θ_s/split × ECP {0, 6} × Stratify.
func sharedSpace() Space {
	return Space{
		Models:       []int{2, 4},
		Shapes:       []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}},
		ThetaS:       []int{-1, 4},
		SplitTargets: []float64{0.25, 0.75},
		Stratify:     []bool{true, false},
		ECPThetas:    []int{0, 6},
	}
}

func marshalLines(t *testing.T, recs []Record) [][]byte {
	t.Helper()
	out := make([][]byte, len(recs))
	for i, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// TestSweepSharedStatsMatchEvaluateAt pins that a sweep walking shared
// statistics writes the same record bytes as evaluating every point on its
// own, at full fidelity and at fidelity 2, sequentially and with 4 workers.
func TestSweepSharedStatsMatchEvaluateAt(t *testing.T) {
	points := sharedSpace().Grid()
	for _, fidelity := range []int{0, 2} {
		want := make([]Record, len(points))
		for i, p := range points {
			want[i] = EvaluateAt(p, 1, fidelity)
			want[i].Index = i
		}
		wantLines := marshalLines(t, want)
		for _, jobs := range []int{1, 4} {
			rs, err := Sweep(context.Background(), points, Config{Seed: 1, Fidelity: fidelity, Jobs: jobs})
			if err != nil || !rs.Complete() {
				t.Fatalf("fidelity %d jobs %d: %v", fidelity, jobs, err)
			}
			for i, line := range marshalLines(t, rs.Records) {
				if !bytes.Equal(line, wantLines[i]) {
					t.Fatalf("fidelity %d jobs %d point %d:\n got %s\nwant %s", fidelity, jobs, i, line, wantLines[i])
				}
			}
		}
	}
}

// TestSweepSharedStatsMatchGolden pins shared-statistics records against
// the golden legacy checkpoint's bytes.
func TestSweepSharedStatsMatchGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy_checkpoint.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	for _, jobs := range []int{1, 4} {
		rs, err := Sweep(context.Background(), legacySpace().Grid(), Config{Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		got := marshalLines(t, rs.Records)
		if len(got) != len(lines) {
			t.Fatalf("jobs %d: %d records for %d golden lines", jobs, len(got), len(lines))
		}
		for i := range got {
			if !bytes.Equal(got[i], lines[i]) {
				t.Fatalf("jobs %d record %d:\n got %s\nwant %s", jobs, i, got[i], lines[i])
			}
		}
	}
}

// countPrepares installs the onPrepare hook for the test's duration and
// returns the per-(trace, shapes) preparation counts.
func countPrepares(t *testing.T) map[statsKey]int {
	counts := map[statsKey]int{}
	var mu sync.Mutex
	onPrepare = func(tr *transformer.Trace, sh accel.Shapes) {
		mu.Lock()
		defer mu.Unlock()
		counts[statsKey{tr, sh}]++
	}
	t.Cleanup(func() { onPrepare = nil })
	return counts
}

// TestSweepPreparesEachPairOnce pins the singleflight: with 4 workers
// racing over 24 points, each of the 4 (trace, shape) pairs is prepared
// exactly once.
func TestSweepPreparesEachPairOnce(t *testing.T) {
	space := Space{
		Models:       []int{4},
		BSA:          []bool{false, true},
		Shapes:       []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}},
		ThetaS:       []int{-1, 4},
		SplitTargets: []float64{0.25, 0.75},
		ECPThetas:    []int{0, 10},
	}
	counts := countPrepares(t)
	rs, err := Sweep(context.Background(), space.Grid(), Config{Seed: 1, Jobs: 4})
	if err != nil || rs.Evaluated != 24 {
		t.Fatalf("sweep: %v, evaluated %d want 24", err, rs.Evaluated)
	}
	if len(counts) != 4 {
		t.Fatalf("prepared %d (trace, shape) pairs, want 4", len(counts))
	}
	for k, n := range counts {
		if n != 1 {
			t.Fatalf("pair %+v prepared %d times, want 1", k.shapes, n)
		}
	}
}

// TestSweepWithoutBishopWorkPreparesNothing pins that sweeps whose points
// are all preloaded, or all PTB/GPU, never prepare statistics.
func TestSweepWithoutBishopWorkPreparesNothing(t *testing.T) {
	points := legacySpace().Grid()
	cold, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := countPrepares(t)
	warm, err := Sweep(context.Background(), points, Config{Seed: 1, Preloaded: cold.Records})
	if err != nil || warm.Evaluated != 0 {
		t.Fatalf("preloaded sweep: %v, evaluated %d", err, warm.Evaluated)
	}
	baselines := Space{Models: []int{4}, Backends: []string{"ptb", "gpu"}}.Grid()
	rs, err := Sweep(context.Background(), baselines, Config{Seed: 1, Jobs: 2})
	if err != nil || rs.Evaluated != len(baselines) {
		t.Fatalf("baseline sweep: %v, evaluated %d", err, rs.Evaluated)
	}
	if len(counts) != 0 {
		t.Fatalf("sweeps without Bishop work prepared %d pairs", len(counts))
	}
}

// TestSweepCommitsInEnumerationOrder pins that a fresh parallel sweep
// appends its checkpoint lines and streams its records in enumeration
// order whatever order the workers finish in, so two runs of one spec
// write identical files.
func TestSweepCommitsInEnumerationOrder(t *testing.T) {
	points := sharedSpace().Grid()
	ckpt := filepath.Join(t.TempDir(), "ordered.jsonl")
	var streamed []int
	rs, err := Sweep(context.Background(), points, Config{Seed: 1, Jobs: 4, Checkpoint: ckpt,
		OnRecord: func(r Record) { streamed = append(streamed, r.Index) }})
	if err != nil || !rs.Complete() {
		t.Fatalf("sweep: %v", err)
	}
	recs, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(points) || len(streamed) != len(points) {
		t.Fatalf("%d checkpoint lines and %d streamed records for %d points", len(recs), len(streamed), len(points))
	}
	for i := range recs {
		if recs[i].Index != i || streamed[i] != i {
			t.Fatalf("position %d holds checkpoint index %d, streamed index %d", i, recs[i].Index, streamed[i])
		}
	}
}
