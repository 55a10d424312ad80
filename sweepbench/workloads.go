package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dse"
	"repro/internal/tracefile"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// workloads maps each workload BENCHMARK.json lists to its run: the result
// line and, for a traced run, the spans to dump. The baseline grid and the
// fleet merge are not workloads of their own: serve-replay's traced run
// replays them, so their layers are still measured.
var workloads = map[string]func(ctx context.Context, e *env) (result, *tracer, error){
	"bishop-grid":  runBishopGrid,
	"serve-replay": runServeReplay,
}

// setupReps is how many times a run builds its workload state; setup_s is
// the median, and the last state is the one measured.
const setupReps = 5

// job is one closed-loop sweep, measured or replayed.
type job struct {
	wall    time.Duration // call → last record
	first   time.Duration // call → first record
	records int
	cost    usage // CPU and allocation of this sweep alone
}

// measurement accumulates a run's jobs, failures and layer counters.
type measurement struct {
	attempted, failed int
	jobs              []job
	counters          map[string]float64
	errs              []string
}

func newMeasurement() *measurement { return &measurement{counters: map[string]float64{}} }

// fail notes an operation error (printed to stderr; the failure itself is
// counted by the caller).
func (m *measurement) fail(err error) {
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err.Error())
	}
}

// closedLoop reports the end-to-end metrics of jobs run back to back:
// medians over jobs, so one slow job does not move a run.
func (m *measurement) closedLoop(setup []float64) map[string]float64 {
	var rate, first, wall, cpu, alloc []float64
	for _, j := range m.jobs {
		if j.records == 0 {
			continue
		}
		rate = append(rate, float64(j.records)/j.wall.Seconds())
		first = append(first, ms(j.first))
		wall = append(wall, ms(j.wall))
		cpu = append(cpu, ms(j.cost.cpu)/float64(j.records))
		alloc = append(alloc, float64(j.cost.alloc)/1024/float64(j.records))
	}
	return map[string]float64{
		"records_per_s":       median(rate),
		"first_record_ms":     median(first),
		"job_p50_ms":          median(wall),
		"job_p90_ms":          quantile(wall, 0.9),
		"cpu_ms_per_record":   median(cpu),
		"alloc_kb_per_record": median(alloc),
		"peak_rss_mb":         peakRSSMB(),
		"setup_s":             median(setup),
	}
}

// secsPerRecord is the median over jobs of wall time per record.
func (m *measurement) secsPerRecord() float64 {
	var per []float64
	for _, j := range m.jobs {
		if j.records > 0 {
			per = append(per, j.wall.Seconds()/float64(j.records))
		}
	}
	return median(per)
}

// finish builds the result line from the measured phase (and, when traced,
// the per-layer values).
func finish(e *env, m *measurement, e2e, layers map[string]float64) result {
	for _, s := range m.errs {
		fmt.Fprintln(os.Stderr, "sweepbench: error:", s)
	}
	if m.attempted == 0 {
		m.attempted, m.failed = 1, 1 // nothing ran: a failed run, never a silent pass
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	if e.opt.trace == 1 {
		layers["fail_frac"] = float64(m.failed) / float64(m.attempted)
		res.Metrics = metricSet(perLayer, layers)
	} else {
		res.Metrics = metricSet(endToEnd, e2e)
	}
	return res
}

// setupTraces is the set-up every workload shares: an empty in-memory trace
// cache, a fresh trace store (as cmd/dse -trace-dir and bishopd -trace-dir
// configure it) and every trace of the grids generated and stored.
func setupTraces(e *env) string {
	workload.ResetTraceCache()
	dir := e.scratch("traces")
	workload.SetTraceDir(dir)
	warmTraces(e.traceSeed)
	return dir
}

// repeatSetup builds the workload state setupReps times, tearing down all
// but the last, and returns the last state with every set-up duration.
func repeatSetup[S any](build func() (S, error), teardown func(S)) (S, []float64, error) {
	var s S
	var durs []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			teardown(s)
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if s, err = build(); err != nil {
			return s, nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return s, durs, nil
}

// phase is the length of one measured phase: the whole run untraced, or
// half of it untraced and half traced.
func (e *env) phase() time.Duration {
	if e.opt.trace == 1 {
		return e.seconds / 2
	}
	return e.seconds
}

// replaySetup replays the trace set-up under spans: generation, the trace
// store's file write, and the read a later process would make.
func replaySetup(e *env, t *tracer) (int, error) {
	dir := e.scratch("trace-replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	zoo, scen := transformer.ModelZoo(), workload.Scenarios()
	root := t.begin("setup", -1)
	defer t.end(root)
	n := 0
	for _, m := range models {
		for _, bsa := range bsas {
			var tr *transformer.Trace
			t.do("workload.trace_gen", root, func() {
				tr = workload.SyntheticTrace(zoo[m-1], scen[m], workload.TraceOptions{BSA: bsa}, e.traceSeed)
			})
			path := filepath.Join(dir, fmt.Sprintf("m%d-bsa%t%s", m, bsa, tracefile.Ext))
			var err error
			t.do("tracefile.write", root, func() { _, err = tracefile.WriteFile(path, tr) })
			if err != nil {
				return n, err
			}
			t.do("tracefile.read", root, func() { _, err = tracefile.ReadFile(path) })
			if err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// layerValues turns the traced run's spans into the per-layer metrics.
// records is the number of records the traced phase evaluated; overhead is
// trace.overhead_frac.
func layerValues(t *tracer, records int, overhead float64, counters map[string]float64) map[string]float64 {
	s := t.summarize()
	get := func(name string) layerStats {
		if st := s[name]; st != nil {
			return *st
		}
		return layerStats{}
	}
	perRecord := func(d time.Duration, unit func(time.Duration) float64) float64 {
		if records == 0 {
			return 0
		}
		return unit(d) / float64(records)
	}
	v := map[string]float64{
		"workload.trace_gen_ms":        ms(get("workload.trace_gen").total),
		"tracefile.write_ms":           ms(get("tracefile.write").total),
		"tracefile.read_ms":            ms(get("tracefile.read").total),
		"spike.count_us":               perRecord(get("spike.count").total, us),
		"bundle.tag_ms":                perRecord(get("bundle.tag").total, ms),
		"bundle.stratify_ms":           perRecord(get("bundle.stratify").total, ms),
		"bundle.ecp_prune_ms":          perRecord(get("bundle.ecp_prune").total, ms),
		"hw.linear_stats_ms":           perRecord(get("hw.linear_stats").total, ms),
		"hw.attn_stats_ms":             perRecord(get("hw.attn_stats").total, ms),
		"accel.simulate_p50_ms":        ms(get("accel.simulate").pct(0.5)),
		"accel.simulate_p90_ms":        ms(get("accel.simulate").pct(0.9)),
		"accel.self_ms":                perRecord(get("accel.simulate").self, ms),
		"backend.ptb_p50_us":           us(get("backend.ptb").pct(0.5)),
		"backend.gpu_p50_us":           us(get("backend.gpu").pct(0.5)),
		"dse.evaluate_p50_ms":          ms(get("dse.evaluate").pct(0.5)),
		"dse.evaluate_p90_ms":          ms(get("dse.evaluate").pct(0.9)),
		"dse.checkpoint_append_p50_us": us(get("dse.checkpoint_append").pct(0.5)),
		"dse.checkpoint_append_p90_us": us(get("dse.checkpoint_append").pct(0.9)),
		"serve.cache_save_p50_us":      us(get("serve.cache_save").pct(0.5)),
		"serve.cache_save_p90_us":      us(get("serve.cache_save").pct(0.9)),
		"serve.cache_load_p50_us":      us(get("serve.cache_load").pct(0.5)),
		"serve.cache_load_p90_us":      us(get("serve.cache_load").pct(0.9)),
		"serve.submit_p90_ms":          ms(get("serve.submit").pct(0.9)),
		"serve.stream_p90_ms":          ms(get("serve.stream").pct(0.9)),
		"trace.overhead_frac":          overhead,
	}
	for k, c := range counters {
		v[k] = c
	}
	return v
}

// overheadFrac is the cost tracing adds to the same work, as a share of its
// untraced cost; costs are per record.
func overheadFrac(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (traced - untraced) / untraced
}

// outOfOrder counts checkpoint lines whose record index is below an index
// an earlier line already holds: lines not in enumeration order.
func outOfOrder(data []byte) int {
	n, hi := 0, -1
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		rec, ok := dse.ParseRecordLine(sc.Bytes())
		if !ok {
			continue
		}
		if rec.Index < hi {
			n++
		} else {
			hi = rec.Index
		}
	}
	return n
}
