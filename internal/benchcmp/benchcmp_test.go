package benchcmp

import (
	"strings"
	"testing"
)

const test2jsonStream = `{"Action":"start","Package":"repro/internal/spike"}
{"Action":"output","Package":"repro/internal/spike","Output":"goos: linux\n"}
{"Action":"output","Package":"repro/internal/spike","Output":"BenchmarkKernelCount/go-8         \t  500000\t      3000 ns/op\n"}
{"Action":"output","Package":"repro/internal/spike","Output":"BenchmarkKernelCount/go-8         \t  500000\t      2800 ns/op\n"}
{"Action":"output","Package":"repro/internal/spike","Output":"BenchmarkKernelCount/avx2-8       \t 2000000\t       650 ns/op\n"}
{"Action":"output","Package":"repro/internal/spike","Output":"some log line mentioning 12 ns/op without being a benchmark\n"}
{"Action":"output","Package":"repro/internal/accel","Output":"BenchmarkSimulatorSteadyState-8   \t     250\t   4700000 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"pass","Package":"repro/internal/accel"}
`

func TestParseTest2JSON(t *testing.T) {
	m, err := Parse(strings.NewReader(test2jsonStream))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("parsed %d results, want 3: %v", len(m), m)
	}
	goK := m["repro/internal/spike BenchmarkKernelCount/go-8"]
	if goK.NsPerOp != 2800 || goK.Samples != 2 {
		t.Fatalf("min-across-count denoising: got %+v", goK)
	}
	sim := m["repro/internal/accel BenchmarkSimulatorSteadyState-8"]
	if sim.NsPerOp != 4700000 || sim.AllocsPerOp != 0 || sim.BytesPerOp != 0 {
		t.Fatalf("full metric line: got %+v", sim)
	}
}

// TestParseSplitOutputEvents pins the real shape of the test2json stream:
// go test writes a benchmark's padded name when it starts and its
// measurements when it finishes — two separate writes that test2json
// surfaces as two separate Output events. Parse must stitch them back
// together, ignore interleaved noise, and not let a stray "ns/op" line
// steal a pending name.
func TestParseSplitOutputEvents(t *testing.T) {
	const stream = `{"Action":"output","Package":"repro/internal/spike","Output":"BenchmarkKernelCount/avx2         \t"}
{"Action":"output","Package":"repro/internal/spike","Output":" 4822818\t       241.0 ns/op\n"}
{"Action":"output","Package":"repro/internal/spike","Output":"BenchmarkKernelOrCount/go         \t"}
{"Action":"output","Package":"repro/internal/spike","Output":"benchmark log: warmup at 12 ns/op\n"}
{"Action":"output","Package":"repro/internal/spike","Output":"  393400\t      3055 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"repro/internal/accel","Output":"BenchmarkSimulatorSteadyState-8   \t     250\t   4700000 ns/op\n"}
`
	m, err := Parse(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("parsed %d results, want 3: %v", len(m), m)
	}
	if r := m["repro/internal/spike BenchmarkKernelCount/avx2"]; r.NsPerOp != 241 {
		t.Fatalf("split name+metrics not stitched: %+v", r)
	}
	or := m["repro/internal/spike BenchmarkKernelOrCount/go"]
	if or.NsPerOp != 3055 || or.AllocsPerOp != 0 {
		t.Fatalf("pending name stolen by log line: %+v", or)
	}
	if r := m["repro/internal/accel BenchmarkSimulatorSteadyState-8"]; r.NsPerOp != 4700000 {
		t.Fatalf("unsplit line must still parse: %+v", r)
	}
}

func TestParsePlainText(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: repro/internal/spike
cpu: whatever
BenchmarkKernelCount/go-8      500000   3000 ns/op
BenchmarkKernelCount/go-8      500000   2900 ns/op
PASS
ok   repro/internal/spike  1.2s
`
	m, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := m["repro/internal/spike BenchmarkKernelCount/go-8"]
	if !ok || r.NsPerOp != 2900 || r.Samples != 2 {
		t.Fatalf("plain-text parse: got %+v (ok=%v)", r, ok)
	}
}

func mk(pkg, name string, ns, allocs float64) Result {
	return Result{Pkg: pkg, Name: name, NsPerOp: ns, AllocsPerOp: allocs, Samples: 1}
}

func asMap(rs ...Result) map[string]Result {
	m := make(map[string]Result)
	for _, r := range rs {
		m[r.Key()] = r
	}
	return m
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := asMap(
		mk("p", "BenchmarkFast-8", 1000, 0),
		mk("p", "BenchmarkSlow-8", 1000, 0),
		mk("p", "BenchmarkAlloc-8", 1000, 0),
		mk("p", "BenchmarkGone-8", 1000, 0),
	)
	head := asMap(
		mk("p", "BenchmarkFast-8", 1050, 0),  // +5%: within threshold
		mk("p", "BenchmarkSlow-8", 1200, 0),  // +20%: regression
		mk("p", "BenchmarkAlloc-8", 1000, 2), // 0 -> 2 allocs: regression
		mk("p", "BenchmarkNew-8", 500, 0),
	)
	rep, err := Compare(base, head, Thresholds{NsFrac: 0.10}, "")
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", len(regs), regs)
	}
	if regs[0].Key != "p BenchmarkAlloc-8" || !strings.Contains(regs[0].Reason, "allocs/op 0 -> 2") {
		t.Fatalf("alloc regression: %+v", regs[0])
	}
	if regs[1].Key != "p BenchmarkSlow-8" || !strings.Contains(regs[1].Reason, "ns/op") {
		t.Fatalf("ns regression: %+v", regs[1])
	}
	if len(rep.MissingKeys) != 1 || rep.MissingKeys[0] != "p BenchmarkGone-8" {
		t.Fatalf("missing: %v", rep.MissingKeys)
	}
	if len(rep.NewKeys) != 1 || rep.NewKeys[0] != "p BenchmarkNew-8" {
		t.Fatalf("new: %v", rep.NewKeys)
	}
}

// TestCompareSubAllocRounding pins that fractional allocs/op noise (large
// counts rounding differently across runs) never trips the gate: growth
// must amount to at least one whole allocation per op.
func TestCompareSubAllocRounding(t *testing.T) {
	base := asMap(mk("p", "B-8", 1000, 100))
	head := asMap(mk("p", "B-8", 1000, 100.6))
	rep, err := Compare(base, head, Thresholds{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions()) != 0 {
		t.Fatalf("sub-alloc rounding flagged: %+v", rep.Regressions())
	}
}

// TestCompareNormalize pins the machine-speed calibration: a head machine
// uniformly 2x slower than the baseline's host shows no regressions once
// the reference benchmark's ratio is divided out — and a kernel that
// regressed on top of the machine difference still fails.
func TestCompareNormalize(t *testing.T) {
	base := asMap(
		mk("p", "BenchmarkRef-8", 1000, 0),
		mk("p", "BenchmarkSame-8", 5000, 0),
		mk("p", "BenchmarkWorse-8", 5000, 0),
	)
	head := asMap(
		mk("p", "BenchmarkRef-8", 2000, 0),    // machine is 2x slower
		mk("p", "BenchmarkSame-8", 10000, 0),  // scaled exactly with the machine
		mk("p", "BenchmarkWorse-8", 14000, 0), // 1.4x beyond the machine factor
	)
	rep, err := Compare(base, head, Thresholds{NsFrac: 0.10}, "BenchmarkRef-8")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != 0.5 {
		t.Fatalf("scale = %v, want 0.5", rep.Scale)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Key != "p BenchmarkWorse-8" {
		t.Fatalf("normalized regressions: %+v", regs)
	}

	if _, err := Compare(base, head, Thresholds{}, "BenchmarkNoSuch-8"); err == nil {
		t.Fatal("missing reference must error")
	}
}

func TestParseRejectsBadJSON(t *testing.T) {
	if _, err := Parse(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("bad test2json line must error")
	}
}

// TestFindByNameProcSuffix pins that the normalization reference resolves
// with or without go test's -GOMAXPROCS name suffix.
func TestFindByNameProcSuffix(t *testing.T) {
	base := asMap(mk("p", "BenchmarkRef-8", 1000, 0))
	head := asMap(mk("p", "BenchmarkRef", 1000, 0)) // GOMAXPROCS=1 host
	rep, err := Compare(base, head, Thresholds{}, "BenchmarkRef")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != 1 {
		t.Fatalf("scale = %v, want 1", rep.Scale)
	}
	if _, err := Compare(base, head, Thresholds{}, "BenchmarkRef-16"); err == nil {
		t.Fatal("explicit wrong suffix must not resolve")
	}
}

// TestCompareAcrossProcSuffixes pins that a baseline recorded without
// go test's -GOMAXPROCS suffix and a head run carrying one (and the
// reverse) pair up benchmark by benchmark instead of reporting every entry
// missing and new.
func TestCompareAcrossProcSuffixes(t *testing.T) {
	stream := func(suffix string, slowerAllocs float64) map[string]Result {
		return asMap(
			mk("p", "BenchmarkRef"+suffix, 1000, 0),
			mk("p", "BenchmarkKernel/go"+suffix, 5000, 0),
			mk("p", "BenchmarkSlower"+suffix, 5000, slowerAllocs),
		)
	}
	for _, tc := range []struct {
		name       string
		base, head map[string]Result
	}{
		{"bare base, -2 head", stream("", 0), stream("-2", 1)},
		{"-2 base, bare head", stream("-2", 0), stream("", 1)},
	} {
		rep, err := Compare(tc.base, tc.head, Thresholds{NsFrac: 0.10}, "BenchmarkRef")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rep.Deltas) != 3 || len(rep.MissingKeys) != 0 || len(rep.NewKeys) != 0 {
			t.Fatalf("%s: %d compared, missing %v, new %v", tc.name, len(rep.Deltas), rep.MissingKeys, rep.NewKeys)
		}
		if regs := rep.Regressions(); len(regs) != 1 || !strings.Contains(regs[0].Key, "BenchmarkSlower") {
			t.Fatalf("%s: regressions %+v, want the allocs/op growth on BenchmarkSlower only", tc.name, regs)
		}
	}
}
