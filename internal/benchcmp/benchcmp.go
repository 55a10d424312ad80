// Package benchcmp parses Go benchmark output and compares two runs
// against regression thresholds — the library behind cmd/benchdiff, the
// CI gate that keeps the SIMD/zero-alloc hot path from quietly rotting.
//
// It reads either the test2json event stream `make bench-json` writes or
// plain `go test -bench` text. Repeated measurements of one benchmark
// (from -count=N) are denoised by taking the minimum: the minimum of N
// runs is the run least disturbed by scheduler and cache noise, which is
// the standard estimator for "how fast can this code go".
package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is the denoised measurement of one benchmark in one stream.
type Result struct {
	Pkg  string // import path ("" when the text format carried no pkg line)
	Name string // full name including sub-benchmark path and -P suffix

	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	Samples     int // measurements folded into the minima
}

// Key identifies the benchmark across streams.
func (r Result) Key() string { return r.Pkg + " " + r.Name }

// event is the subset of the test2json stream benchcmp reads. The stream
// deliberately carries more (Time, Test, Elapsed); unknown fields are
// irrelevant here, not schema drift.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// parser folds benchmark output lines into results. go test writes a
// benchmark's name when it starts and its measurements when it finishes —
// two separate writes, which test2json surfaces as two separate Output
// events — so the parser carries the pending name (per package) until the
// measurement line arrives. A single-write line carrying both still parses
// directly.
type parser struct {
	results map[string]Result
	pending map[string]string // package -> benchmark name awaiting numbers
}

// Parse reads one benchmark stream — test2json events or plain text — and
// returns the denoised results keyed by Result.Key.
func Parse(r io.Reader) (map[string]Result, error) {
	p := parser{results: make(map[string]Result), pending: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	pkg := "" // current package in the plain-text format
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "{") {
			var ev event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return nil, fmt.Errorf("benchcmp: bad test2json line: %w", err)
			}
			if ev.Action != "output" {
				continue
			}
			p.addLine(ev.Package, strings.TrimSpace(ev.Output))
			continue
		}
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		p.addLine(pkg, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchcmp: %w", err)
	}
	return p.results, nil
}

// addLine folds one output line into the results.
func (p *parser) addLine(pkg, line string) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return
	}
	if strings.HasPrefix(f[0], "Benchmark") && len(f[0]) > len("Benchmark") {
		if len(f) == 1 {
			p.pending[pkg] = f[0] // name flushed alone; numbers follow
			return
		}
	} else if name := p.pending[pkg]; name != "" && strings.Contains(line, "ns/op") {
		f = append([]string{name}, f...) // continuation of a split line
	} else {
		return
	}
	if !strings.Contains(line, "ns/op") || len(f) < 4 {
		return
	}
	r := Result{Pkg: pkg, Name: f[0], Samples: 1}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return // not an iteration count — a stray line mentioning ns/op
	}
	ok := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, ok = v, true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if !ok {
		return
	}
	delete(p.pending, pkg)
	if prev, seen := p.results[r.Key()]; seen {
		r.NsPerOp = min(r.NsPerOp, prev.NsPerOp)
		r.BytesPerOp = min(r.BytesPerOp, prev.BytesPerOp)
		r.AllocsPerOp = min(r.AllocsPerOp, prev.AllocsPerOp)
		r.Samples = prev.Samples + 1
	}
	p.results[r.Key()] = r
}

// Thresholds parameterize what counts as a regression.
type Thresholds struct {
	// NsFrac is the tolerated fractional ns/op growth: 0.10 flags a
	// benchmark whose (normalized) time grew by more than 10%.
	NsFrac float64
	// AllocFrac is the tolerated fractional allocs/op growth. Growth is
	// only a regression when it also amounts to at least one whole
	// allocation per op, so 0 pins zero-alloc paths exactly while float
	// rounding on large counts cannot trip the gate.
	AllocFrac float64
}

// Delta is the comparison of one benchmark present in both streams.
type Delta struct {
	Key        string
	Base, Head Result
	// NsRatio is head/base ns/op after calibration (see Report.Scale).
	NsRatio    float64
	Regression bool
	Reason     string // why it regressed ("" when it did not)
}

// Report is the full comparison of two streams.
type Report struct {
	Deltas      []Delta  // sorted by Key
	MissingKeys []string // in base but not head: lost gate coverage
	NewKeys     []string // in head but not base: not yet in the baseline

	// Scale is the machine-speed calibration factor applied to head
	// ns/op before comparison: baseRef/headRef when a normalization
	// reference was given, 1 otherwise.
	Scale        float64
	NormalizeRef string
}

// Regressions returns the deltas that crossed a threshold.
func (rep Report) Regressions() []Delta {
	var out []Delta
	for _, d := range rep.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Compare evaluates head against base. normalizeRef, when non-empty, names
// a benchmark (matched by Name, ignoring package) present in both streams
// whose ns/op ratio is divided out of every comparison — calibrating away
// machine-speed differences between the committed baseline's host and the
// machine running the gate. The reference should be a stable pure-Go
// benchmark so the calibration itself cannot hide a dispatched-kernel
// regression.
func Compare(base, head map[string]Result, th Thresholds, normalizeRef string) (Report, error) {
	rep := Report{Scale: 1, NormalizeRef: normalizeRef}
	if normalizeRef != "" {
		b, err := findByName(base, normalizeRef, "base")
		if err != nil {
			return rep, err
		}
		h, err := findByName(head, normalizeRef, "head")
		if err != nil {
			return rep, err
		}
		if b.NsPerOp <= 0 || h.NsPerOp <= 0 {
			return rep, fmt.Errorf("benchcmp: reference %q has non-positive ns/op", normalizeRef)
		}
		rep.Scale = b.NsPerOp / h.NsPerOp
	}

	// Streams pair up by gate key, so a baseline recorded at one
	// GOMAXPROCS compares against a head run at any other.
	headByGate := make(map[string]Result, len(head))
	for _, h := range head {
		headByGate[h.gateKey()] = h
	}
	baseGates := make(map[string]bool, len(base))
	keys := make([]string, 0, len(base))
	for k, b := range base {
		keys = append(keys, k)
		baseGates[b.gateKey()] = true
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := base[k]
		h, ok := headByGate[b.gateKey()]
		if !ok {
			rep.MissingKeys = append(rep.MissingKeys, k)
			continue
		}
		d := Delta{Key: k, Base: b, Head: h, NsRatio: h.NsPerOp * rep.Scale / b.NsPerOp}
		if d.NsRatio > 1+th.NsFrac {
			d.Regression = true
			d.Reason = fmt.Sprintf("ns/op %.0f -> %.0f (%+.1f%%, threshold %+.1f%%)",
				b.NsPerOp, h.NsPerOp*rep.Scale, (d.NsRatio-1)*100, th.NsFrac*100)
		}
		if h.AllocsPerOp > b.AllocsPerOp*(1+th.AllocFrac) && h.AllocsPerOp-b.AllocsPerOp >= 1 {
			d.Regression = true
			if d.Reason != "" {
				d.Reason += "; "
			}
			d.Reason += fmt.Sprintf("allocs/op %.0f -> %.0f", b.AllocsPerOp, h.AllocsPerOp)
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for k, h := range head {
		if !baseGates[h.gateKey()] {
			rep.NewKeys = append(rep.NewKeys, k)
		}
	}
	sort.Strings(rep.NewKeys)
	return rep, nil
}

// findByName resolves a benchmark by bare Name across packages, erroring
// when absent or ambiguous. The -GOMAXPROCS suffix go test appends (absent
// when GOMAXPROCS=1) is tolerated, so one reference name works across
// machine classes.
func findByName(m map[string]Result, name, stream string) (Result, error) {
	var found []Result
	for _, r := range m {
		if r.Name == name || procSuffixed(r.Name, name) {
			found = append(found, r)
		}
	}
	switch len(found) {
	case 0:
		return Result{}, fmt.Errorf("benchcmp: reference benchmark %q not in %s stream", name, stream)
	case 1:
		return found[0], nil
	default:
		return Result{}, fmt.Errorf("benchcmp: reference benchmark %q ambiguous in %s stream (%d packages)", name, stream, len(found))
	}
}

// gateKey is Key without go test's -GOMAXPROCS name suffix (absent when
// GOMAXPROCS=1).
func (r Result) gateKey() string {
	name := r.Name
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return r.Pkg + " " + name
}

// procSuffixed reports whether got is want plus a "-N" GOMAXPROCS suffix.
func procSuffixed(got, want string) bool {
	rest, ok := strings.CutPrefix(got, want+"-")
	if !ok {
		return false
	}
	_, err := strconv.Atoi(rest)
	return err == nil
}
