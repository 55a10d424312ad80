package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// replayRate is serve-replay's open-loop arrival rate in jobs/s: 35–40% of
// the closed-loop capacity `sweepbench --workload serve-replay --capacity`
// measured, 20–23 jobs/s with 2 connections on a 2-vCPU Xeon (Go 1.24,
// AVX-512 spike kernel). The shared host runs up to 2x slower for minutes at
// a time; at 14 jobs/s (65%) such a spell saturated the daemon's single
// worker, queued jobs for seconds and had some refused, so the rate leaves
// room for it. It is fixed so runs on slower code show it in job latency
// instead of silently sending less.
const replayRate = 8.0

// Daemon settings: bishopd's flag defaults (-queue 16 -workers 1 -jobs 0).
const (
	daemonQueue   = 16
	daemonWorkers = 1
)

// daemon is one in-process bishopd: its job manager behind its HTTP
// handler on an httptest server.
type daemon struct {
	mgr   *serve.Manager
	srv   *httptest.Server
	cache *serve.Cache
}

func startDaemon(cache *serve.Cache) *daemon {
	mgr := serve.NewManager(serve.ManagerConfig{QueueDepth: daemonQueue, Workers: daemonWorkers, Cache: cache})
	return &daemon{mgr: mgr, srv: httptest.NewServer(serve.NewServer(mgr).Handler()), cache: cache}
}

// close stops the server (after its last request) and drains the manager.
func (d *daemon) close() {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.mgr.Close(ctx) // a drain error leaves nothing to clean up: every job is terminal or canceled
}

// replayState is serve-replay's set-up: warm traces, a result cache filled
// with the baseline grid's records, and the daemon serving from it.
type replayState struct {
	d    *daemon
	fill []dse.Record
}

func runServeReplay(ctx context.Context, e *env) (result, *tracer, error) {
	ref, err := loadReference()
	if err != nil {
		return result{}, nil, err
	}
	base := dse.SweepSpec{Space: baselineSpace(), Seed: e.traceSeed}
	points := base.Points()
	exp, err := newExpect(ref, "baseline-grid", points, e.opt.seed)
	if err != nil {
		return result{}, nil, err
	}
	st, setup, err := repeatSetup(func() (*replayState, error) { return setupReplay(ctx, e, base) },
		func(s *replayState) { s.d.close() })
	if err != nil {
		return result{}, nil, err
	}
	defer st.d.close()

	m := newMeasurement()
	// The cached records are the ground truth every job is checked against,
	// so they are checked first.
	fill := recordLines(st.fill)
	exp.adopt(fill)
	m.attempted += len(points)
	m.failed += exp.tally(fill, nil)
	if e.opt.seed != defaultSeed {
		n, bad := exp.spotCheck(e.opt.seed, e.traceSeed, spotChecks)
		m.attempted += n
		m.failed += bad
	}

	seen := map[string]bool{}
	jobs := replaySchedule(base, points, replayJobs(e.phase()), replayRate, e.opt.seed, streamReplay, seen)
	load := replayLoad(ctx, e, st.d, jobs, exp, nil)
	load.addTo(m)
	for _, j := range jobs {
		if job, ok := st.d.mgr.Get(j.spec.Normalized().ID()); ok {
			s := job.Status()
			m.counters["serve.cache_hits"] += float64(s.CacheHits)
			m.counters["serve.cache_misses"] += float64(s.Evaluated)
		}
	}
	m.counters["serve.rejected"] = float64(load.rejected)
	m.counters["loadgen.lag_p90_ms"] = quantile(load.lag, 0.9)

	if e.opt.trace == 0 {
		return finish(e, m, load.endToEnd(setup), nil), nil, nil
	}

	t := newTracer()
	traces, err := replaySetup(e, t)
	if err != nil {
		return result{}, nil, err
	}
	tjobs := replaySchedule(base, points, replayJobs(e.phase()), replayRate, e.opt.seed, streamReplayTraced, seen)
	tload := replayLoad(ctx, e, st.d, tjobs, exp, t)
	tload.addTo(m)
	// The daemon's cache look-ups happen inside serve.Run; replay those of
	// the first jobs, one span per Cache.LoadAt.
	root := t.begin("serve.lookup", -1)
	for _, j := range tjobs[:min(2, len(tjobs))] {
		for _, i := range j.want {
			key := dse.DigestKey(points[i])
			t.do("serve.cache_load", root, func() {
				if _, ok := st.d.cache.LoadAt(key, e.traceSeed, 0); !ok {
					m.failed++
				}
			})
		}
	}
	t.end(root)

	// The set-up's cache fill and a fleet merge of the same grid are the
	// writers behind this read path. Both are bound by per-record fsyncs, too
	// unsteady on a shared disk to be workloads of their own, so one of each
	// is replayed here to keep the backend, the durable writes and fleet
	// under spans.
	fm := newMeasurement()
	gridReplay(e, t, e.traceSeed, points, exp, fm, &simStats{}, true)
	merged := fleetMerge(ctx, e, base, exp, fm, t)
	m.attempted += fm.attempted
	m.failed += fm.failed
	m.errs = append(m.errs, fm.errs...)
	m.counters["fleet.releases"] = float64(merged.ReLeases)
	m.counters["fleet.worker_skew"] = workerSkew(merged.WorkerRecords)
	m.counters["fleet.fresh"] = float64(merged.Fresh)
	m.counters["dse.checkpoint_bytes"] = fm.counters["dse.checkpoint_bytes"]
	m.counters["dse.checkpoint_out_of_order"] = fm.counters["dse.checkpoint_out_of_order"]
	m.counters["workload.trace_count"] = float64(traces)
	// Both load phases run at the same fixed rate, so their record rates
	// match whatever the tracing costs; the CPU time per record does not.
	overhead := overheadFrac(load.cpuMSPerRecord(), tload.cpuMSPerRecord())
	layers := layerValues(t, tload.records, overhead, m.counters)
	return finish(e, m, nil, layers), t, nil
}

// replayJobs is the job count of one open-loop phase.
func replayJobs(d time.Duration) int { return max(1, int(d.Seconds()*replayRate+0.5)) }

func setupReplay(ctx context.Context, e *env, base dse.SweepSpec) (*replayState, error) {
	setupTraces(e)
	cache := &serve.Cache{Dir: e.scratch("daemon-cache")}
	rr, err := serve.Run(ctx, base, serve.RunOptions{Cache: cache})
	if err != nil {
		return nil, fmt.Errorf("fill result cache: %w", err)
	}
	return &replayState{d: startDaemon(cache), fill: rr.Set.Records}, nil
}

// loadResult is one open-loop phase.
type loadResult struct {
	jobs, failed, records, rejected int
	window                          time.Duration // first due time → last record
	cost                            usage
	first, latency, lag             []float64 // ms per job
}

func (l loadResult) recordRate() float64 {
	if l.window <= 0 {
		return 0
	}
	return float64(l.records) / l.window.Seconds()
}

func (l loadResult) cpuMSPerRecord() float64 {
	if l.records == 0 {
		return 0
	}
	return ms(l.cost.cpu) / float64(l.records)
}

func (l loadResult) allocKBPerRecord() float64 {
	if l.records == 0 {
		return 0
	}
	return float64(l.cost.alloc) / 1024 / float64(l.records)
}

func (l loadResult) addTo(m *measurement) {
	m.attempted += l.jobs
	m.failed += l.failed
}

func (l loadResult) endToEnd(setup []float64) map[string]float64 {
	return map[string]float64{
		"records_per_s":       l.recordRate(),
		"first_record_ms":     median(l.first),
		"job_p50_ms":          median(l.latency),
		"job_p90_ms":          quantile(l.latency, 0.9),
		"cpu_ms_per_record":   l.cpuMSPerRecord(),
		"alloc_kb_per_record": l.allocKBPerRecord(),
		"peak_rss_mb":         peakRSSMB(),
		"setup_s":             median(setup),
	}
}

// jobOutcome is one HTTP job as the client saw it.
type jobOutcome struct {
	sent, first, end time.Time
	records          int
	failed, rejected bool
	err              error
}

// replayLoad sends jobs open-loop, each at its due time whatever the
// daemon's progress, over at most procs client connections, and waits for
// every stream to end. t, when non-nil, gets a span per job, submit and
// stream. A failed or rejected job never delivered its records, so it
// counts in the latencies as having waited the whole phase, longer than any
// job that succeeded: failures make the percentiles worse, never better.
func replayLoad(ctx context.Context, e *env, d *daemon, jobs []replayJob, exp *expect, t *tracer) loadResult {
	tr := &http.Transport{MaxConnsPerHost: e.procs, MaxIdleConnsPerHost: e.procs}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	runtime.GC()
	out := make([]jobOutcome, len(jobs))
	var wg sync.WaitGroup
	u0 := readUsage()
	start := time.Now()
	for i, j := range jobs {
		due := start.Add(j.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = sendJob(ctx, client, d.srv.URL, j, exp, t)
		}()
	}
	wg.Wait()
	res := loadResult{jobs: len(jobs), cost: readUsage().sub(u0)}
	var last time.Time
	for _, o := range out {
		if o.end.After(last) {
			last = o.end
		}
	}
	res.window = last.Sub(start)
	for i, o := range out {
		due := start.Add(jobs[i].at)
		res.records += o.records
		res.lag = append(res.lag, ms(o.sent.Sub(due)))
		if o.rejected {
			res.rejected++
		}
		if o.failed {
			res.failed++
			if o.err != nil {
				fmt.Fprintln(os.Stderr, "sweepbench: job:", o.err)
			}
			res.first = append(res.first, ms(res.window))
			res.latency = append(res.latency, ms(res.window))
			continue
		}
		res.first = append(res.first, ms(o.first.Sub(o.sent)))
		res.latency = append(res.latency, ms(o.end.Sub(due)))
	}
	return res
}

// sendJob submits one spec, streams its records to EOF and checks them.
func sendJob(ctx context.Context, client *http.Client, base string, j replayJob, exp *expect, t *tracer) (o jobOutcome) {
	root := t.begin("serve.job", -1)
	defer t.end(root)
	body, err := dse.EncodeSpec(j.spec)
	if err != nil {
		return jobOutcome{failed: true, err: err}
	}
	o.sent = time.Now()
	defer func() { o.failed = o.failed || o.err != nil }()
	var id string
	t.do("serve.submit", root, func() { id, o.rejected, o.err = submit(ctx, client, base, body) })
	if o.err != nil {
		o.end = time.Now()
		return o
	}
	var lines []indexedLine
	bad := 0
	t.do("serve.stream", root, func() {
		o.err = stream(ctx, client, base+"/v1/sweeps/"+id+"/records", func(line []byte) {
			if o.first.IsZero() {
				o.first = time.Now()
			}
			rec, ok := dse.ParseRecordLine(line)
			if !ok {
				bad++
				return
			}
			lines = append(lines, indexedLine{index: rec.Index, line: line})
		})
	})
	o.end = time.Now() // the job ends with its stream; checking it is the benchmark's cost
	o.records = len(lines)
	if n := bad + exp.tally(lines, j.want); n > 0 && o.err == nil {
		o.err = fmt.Errorf("job %s: %d of %d records missing or wrong", id, n, len(j.want))
	}
	return o
}

// submit POSTs a spec and returns the job id; a 429 is a rejection.
func submit(ctx context.Context, client *http.Client, base string, body []byte) (id string, rejected bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", false, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode == http.StatusTooManyRequests,
			fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st serve.JobStatus
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return "", false, fmt.Errorf("submit: decode status: %w", err)
	}
	return st.ID, false, nil
}

// stream GETs an NDJSON record stream and hands each line to fn until EOF.
func stream(ctx context.Context, client *http.Client, url string, fn func([]byte)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		fn(bytes.Clone(sc.Bytes()))
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// measureCapacity runs serve-replay's jobs closed-loop, procs clients back
// to back, and returns the jobs completed per second.
func measureCapacity(ctx context.Context, e *env) (float64, error) {
	ref, err := loadReference()
	if err != nil {
		return 0, err
	}
	base := dse.SweepSpec{Space: baselineSpace(), Seed: e.traceSeed}
	points := base.Points()
	exp, err := newExpect(ref, "baseline-grid", points, e.opt.seed)
	if err != nil {
		return 0, err
	}
	st, err := setupReplay(ctx, e, base)
	if err != nil {
		return 0, err
	}
	defer st.d.close()
	exp.adopt(recordLines(st.fill))
	jobs := replaySchedule(base, points, replayJobs(e.seconds)*2, replayRate, e.opt.seed, streamReplay, map[string]bool{})
	tr := &http.Transport{MaxConnsPerHost: e.procs, MaxIdleConnsPerHost: e.procs}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	var mu sync.Mutex
	next, done, failed := 0, 0, 0
	deadline := time.Now().Add(e.seconds)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				if next == len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				o := sendJob(ctx, client, st.d.srv.URL, j, exp, nil)
				mu.Lock()
				done++
				if o.failed {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failed > 0 {
		return 0, fmt.Errorf("%d of %d capacity jobs failed", failed, done)
	}
	if done == 0 {
		return 0, errors.New("no capacity job completed")
	}
	return float64(done) / time.Since(start).Seconds(), nil
}
