package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite reference.json from direct dse.EvaluateAt calls")

// TestReferenceMatchesDirectEvaluation pins reference.json to the direct
// evaluator: every grid record of the default seed, evaluated point by
// point through dse.EvaluateAt, must hash to the stored line hash.
func TestReferenceMatchesDirectEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates all 760 grid points")
	}
	grids := map[string]dse.Space{"bishop-grid": bishopSpace(), "baseline-grid": baselineSpace()}
	got := reference{}
	for name, space := range grids {
		points := dse.SweepSpec{Space: space, Seed: traceSeedFor(defaultSeed)}.Points()
		hashes := make([]string, len(points))
		var wg sync.WaitGroup
		sem := make(chan struct{}, 2)
		for i, p := range points {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				rec := dse.EvaluateAt(p, traceSeedFor(defaultSeed), 0)
				rec.Index = i
				hashes[i] = fmt.Sprintf("%016x", lineHash(recordLine(rec)))
			}()
		}
		wg.Wait()
		got[name] = hashes
	}
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for name, hashes := range got {
		if !slices.Equal(want[name], hashes) {
			t.Errorf("%s: reference.json differs from direct evaluation (rerun with -update if the model changed on purpose)", name)
		}
	}
}

// TestSameSeedSameInputs pins the seed contract: one workload seed gives
// the same trace seed, spec digests and arrival schedule every time, and
// another seed gives other inputs.
func TestSameSeedSameInputs(t *testing.T) {
	inputs := func(seed uint64) []string {
		base := dse.SweepSpec{Space: baselineSpace(), Seed: traceSeedFor(seed)}
		out := []string{
			dse.SweepSpec{Space: bishopSpace(), Seed: traceSeedFor(seed)}.ID(),
			base.ID(),
		}
		jobs := replaySchedule(base, base.Points(), 20, replayRate, seed, streamReplay, map[string]bool{})
		return append(out, specDigests(jobs)...)
	}
	a, b := inputs(7), inputs(7)
	if !slices.Equal(a, b) {
		t.Fatalf("seed 7 gave different inputs:\n%v\n%v", a, b)
	}
	if c := inputs(8); slices.Equal(a[2:], c[2:]) || a[0] == c[0] {
		t.Fatal("seeds 7 and 8 gave the same inputs")
	}
	if traceSeedFor(defaultSeed) != 1 {
		t.Fatal("the default seed must keep trace seed 1, the seed reference.json pins")
	}
	seen := map[string]bool{}
	for _, d := range a[2:] {
		id := d[:16]
		if seen[id] {
			t.Fatalf("job spec %s repeats within a schedule", id)
		}
		seen[id] = true
	}
}

// specDigests lists the job ids of a schedule, for determinism checks.
func specDigests(jobs []replayJob) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = fmt.Sprintf("%s@%d", j.spec.Normalized().ID(), j.at)
	}
	return out
}

// testRecords evaluates the first n points of the baseline grid (cheap PTB
// points) at trace seed 1.
func testRecords(t *testing.T, n int) ([]dse.Point, []dse.Record) {
	t.Helper()
	points := dse.SweepSpec{Space: baselineSpace(), Seed: 1}.Points()[:n]
	recs := make([]dse.Record, n)
	for i, p := range points {
		recs[i] = dse.EvaluateAt(p, 1, 0)
		recs[i].Index = i
	}
	return points, recs
}

// TestTallyCountsCorruptedAndDroppedRecords checks the per-run gate on the
// record sets bishop-grid and the fleet merge hash: a corrupted, a dropped, an
// unexpected and a duplicated record each count as one failure.
func TestTallyCountsCorruptedAndDroppedRecords(t *testing.T) {
	points, recs := testRecords(t, 4)
	exp := &expect{points: points}
	exp.adopt(recordLines(recs))
	if n := exp.tally(recordLines(recs), nil); n != 0 {
		t.Fatalf("clean delivery: %d failures", n)
	}

	corrupted := slices.Clone(recs)
	corrupted[1].LatencyMS *= 1.0000001
	if n := exp.tally(recordLines(corrupted), nil); n != 1 {
		t.Errorf("corrupted record: %d failures, want 1", n)
	}
	dropped := slices.Delete(slices.Clone(recs), 2, 3)
	if n := exp.tally(recordLines(dropped), nil); n != 1 {
		t.Errorf("dropped record: %d failures, want 1", n)
	}
	if n := exp.tally(recordLines(recs), []int{0, 1, 2}); n != 1 {
		t.Errorf("unexpected record: %d failures, want 1", n)
	}
	dup := append(slices.Clone(recs), recs[0])
	if n := exp.tally(recordLines(dup), nil); n != 1 {
		t.Errorf("duplicated record: %d failures, want 1", n)
	}

	// The same holds against a stored reference, as for the default seed.
	ref := reference{"baseline-grid": nil}
	for _, r := range recs {
		ref["baseline-grid"] = append(ref["baseline-grid"], fmt.Sprintf("%016x", lineHash(recordLine(r))))
	}
	stored, err := newExpect(ref, "baseline-grid", points, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if n := stored.tally(recordLines(corrupted), nil) + stored.tally(recordLines(dropped), nil); n != 2 {
		t.Errorf("against reference: %d failures, want 2", n)
	}
}

// TestStreamedJobCountsCorruptedAndDroppedRecords checks the serve-replay
// gate: a job whose NDJSON stream carries a corrupted or a dropped line
// fails, and a clean stream in any order passes.
func TestStreamedJobCountsCorruptedAndDroppedRecords(t *testing.T) {
	points, recs := testRecords(t, 3)
	exp := &expect{points: points}
	exp.adopt(recordLines(recs))
	lines := func(rs []dse.Record) []byte {
		var b bytes.Buffer
		for _, r := range rs {
			b.Write(recordLine(r))
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	corrupt := lines(recs)
	corrupt[10] ^= 0x20 // flips a byte inside the first record's digest
	cases := []struct {
		name   string
		body   []byte
		failed bool
	}{
		{"clean, out of order", lines([]dse.Record{recs[2], recs[0], recs[1]}), false},
		{"corrupted", corrupt, true},
		{"dropped", lines(recs[:2]), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					w.WriteHeader(http.StatusAccepted)
					json.NewEncoder(w).Encode(serve.JobStatus{ID: "0123456789abcdef"})
					return
				}
				w.Write(c.body)
			}))
			defer srv.Close()
			j := replayJob{spec: dse.SweepSpec{Space: baselineSpace()}, want: []int{0, 1, 2}}
			o := sendJob(context.Background(), srv.Client(), srv.URL, j, exp, nil)
			if o.failed != c.failed {
				t.Fatalf("failed = %v (err %v), want %v", o.failed, o.err, c.failed)
			}
		})
	}
}

// TestFailedJobsCountAsSlowest checks that a rejected job worsens the
// latency percentiles instead of leaving the sample: it counts as having
// waited the whole phase, longer than every job that succeeded.
func TestFailedJobsCountAsSlowest(t *testing.T) {
	points, recs := testRecords(t, 3)
	exp := &expect{points: points}
	exp.adopt(recordLines(recs))
	var body bytes.Buffer
	for _, r := range recs {
		body.Write(recordLine(r))
		body.WriteByte('\n')
	}
	var mu sync.Mutex
	posts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			posts++
			n := posts
			mu.Unlock()
			if n == 2 {
				http.Error(w, "queue full", http.StatusTooManyRequests)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.JobStatus{ID: fmt.Sprintf("%016x", n)})
			return
		}
		time.Sleep(20 * time.Millisecond)
		w.Write(body.Bytes())
	}))
	defer srv.Close()
	var jobs []replayJob
	for i := 0; i < 3; i++ {
		jobs = append(jobs, replayJob{at: time.Duration(i) * 30 * time.Millisecond,
			spec: dse.SweepSpec{Space: baselineSpace()}, want: []int{0, 1, 2}})
	}
	res := replayLoad(context.Background(), &env{procs: 1}, &daemon{srv: srv}, jobs, exp, nil)
	if res.failed != 1 || res.rejected != 1 {
		t.Fatalf("failed %d, rejected %d; want 1 and 1", res.failed, res.rejected)
	}
	if got, want := res.latency[1], ms(res.window); got != want {
		t.Errorf("rejected job latency %.3f ms, want the phase's %.3f ms", got, want)
	}
	for _, i := range []int{0, 2} {
		if res.latency[i] >= res.latency[1] {
			t.Errorf("job %d latency %.3f ms not below the rejected job's %.3f ms", i, res.latency[i], res.latency[1])
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that BENCHMARK.json declares
// exactly the metrics the benchmark prints, and that a real run of each
// mode prints exactly those.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
		Work     []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(rows []struct{ Name, Unit, Better string }) []metricDef {
		var out []metricDef
		for _, r := range rows {
			out = append(out, metricDef{r.Name, r.Unit, r.Better})
		}
		return out
	}
	if got := declared(bench.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, benchmark prints %v", got, endToEnd)
	}
	if got := declared(bench.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, benchmark prints %v", got, perLayer)
	}
	var names []string
	for _, w := range bench.Work {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if have := workloadNames(); !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads = %v, benchmark runs %v", names, have)
	}

	if testing.Short() {
		return
	}
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		args := []string{"--workload", "serve-replay", "--seed", "3", "--seconds", "0.2", "--trace", trace}
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		var got []string
		for name := range res.Metrics {
			got = append(got, name)
		}
		slices.Sort(got)
		var wantNames []string
		for _, d := range want {
			wantNames = append(wantNames, d.name)
		}
		slices.Sort(wantNames)
		if !slices.Equal(got, wantNames) {
			t.Errorf("--trace %s printed %v, want %v", trace, got, wantNames)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestBadArgumentsPrintNoResult checks that a malformed invocation exits
// non-zero without a result line.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bishop-grid", "--trace", "2"},
		{"--workload", "bishop-grid", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
