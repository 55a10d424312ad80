package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// spotChecks is how many points of a non-default seed are re-evaluated
// directly through dse.EvaluateAt.
const spotChecks = 6

// runBishopGrid is a closed loop of whole sweeps of the Bishop grid through
// serve.Run, each with a fresh checkpoint and a fresh result cache. The spec
// carries the trace store, as cmd/dse -trace-dir sets it.
func runBishopGrid(ctx context.Context, e *env) (result, *tracer, error) {
	ref, err := loadReference()
	if err != nil {
		return result{}, nil, err
	}
	spec := dse.SweepSpec{Space: bishopSpace(), Seed: e.traceSeed}
	points := spec.Points()
	exp, err := newExpect(ref, "bishop-grid", points, e.opt.seed)
	if err != nil {
		return result{}, nil, err
	}
	traceDir, setup, err := repeatSetup(func() (string, error) { return setupTraces(e), nil },
		func(dir string) { os.RemoveAll(dir) })
	if err != nil {
		return result{}, nil, err
	}
	spec.TraceDir = traceDir

	m := newMeasurement()
	deadline := time.Now().Add(e.phase())
	for len(m.jobs) == 0 || time.Now().Before(deadline) {
		gridSweep(ctx, e, spec, exp, m)
	}
	if e.opt.seed != defaultSeed {
		n, bad := exp.spotCheck(e.opt.seed, e.traceSeed, spotChecks)
		m.attempted += n
		m.failed += bad
	}
	if e.opt.trace == 0 {
		return finish(e, m, m.closedLoop(setup), nil), nil, nil
	}

	// The traced phase alternates sweeps of the replayed evaluator with and
	// without spans, so trace.overhead_frac compares the same code.
	t := newTracer()
	traces, err := replaySetup(e, t)
	if err != nil {
		return result{}, nil, err
	}
	tm, um := newMeasurement(), newMeasurement()
	st := &simStats{}
	deadline = time.Now().Add(e.phase())
	for len(tm.jobs) == 0 || time.Now().Before(deadline) {
		gridReplay(e, t, spec.Seed, points, exp, tm, st, false)
		gridReplay(e, nil, spec.Seed, points, exp, um, &simStats{}, false)
	}
	var evalTime, sweepTime time.Duration
	for _, s := range t.summarize()["dse.evaluate"].durs {
		evalTime += time.Duration(s)
	}
	for _, j := range tm.jobs {
		sweepTime += j.wall
	}
	for _, x := range []*measurement{tm, um} {
		m.attempted += x.attempted
		m.failed += x.failed
		m.errs = append(m.errs, x.errs...)
	}
	m.counters["workload.trace_count"] = float64(traces)
	m.counters["bundle.active_bundle_frac"] = st.activeBundleFrac()
	m.counters["bundle.dense_feature_frac"] = st.denseFeatureFrac()
	m.counters["dse.parallel_eff"] = float64(evalTime) / (float64(sweepTime) * float64(e.procs))
	overhead := overheadFrac(um.secsPerRecord(), tm.secsPerRecord())
	layers := layerValues(t, len(tm.jobs)*len(points), overhead, m.counters)
	return finish(e, m, nil, layers), t, nil
}

// gridSweep runs one measured sweep and checks its records.
func gridSweep(ctx context.Context, e *env, spec dse.SweepSpec, exp *expect, m *measurement) {
	dir := e.scratch("sweep")
	defer os.RemoveAll(dir)
	spec.Checkpoint = filepath.Join(dir, "checkpoint.jsonl")
	cache := &serve.Cache{Dir: filepath.Join(dir, "cache")}
	n := len(exp.points)
	m.attempted += n
	if err := os.MkdirAll(dir, 0o755); err != nil {
		m.failed += n
		m.fail(err)
		m.jobs = append(m.jobs, job{})
		return
	}

	runtime.GC()
	var first time.Time
	u0 := readUsage()
	start := time.Now()
	rr, err := serve.Run(ctx, spec, serve.RunOptions{Cache: cache, OnRecord: func(dse.Record) {
		if first.IsZero() {
			first = time.Now()
		}
	}})
	end := time.Now()
	cost := readUsage().sub(u0)

	if err != nil {
		m.fail(err)
	}
	var recs []dse.Record
	if rr != nil && rr.Set != nil {
		recs = rr.Set.Records
		m.counters["serve.cache_hits"] += float64(rr.CacheHits)
		m.counters["serve.cache_misses"] += float64(rr.CacheMisses)
	}
	lines := recordLines(recs)
	exp.adopt(lines)
	m.failed += exp.tally(lines, nil)
	m.jobs = append(m.jobs, job{wall: end.Sub(start), first: first.Sub(start), records: len(recs), cost: cost})
	if data, err := os.ReadFile(spec.Checkpoint); err == nil {
		m.counters["dse.checkpoint_bytes"] = float64(len(data))
		m.counters["dse.checkpoint_out_of_order"] = float64(outOfOrder(data))
	}
}

// gridReplay is one replayed sweep, traced unless t is nil: the cache look-ups serve.Run makes, then
// every point evaluated by procs workers through the replayed evaluator,
// each record appended to a checkpoint and published to the cache under
// one lock, as dse.Sweep and serve.Run do. With fill it replays
// serve-replay's cache fill instead: that spec has no checkpoint, and its
// look-ups into the empty cache are misses the measured jobs never make, so
// neither is replayed.
func gridReplay(e *env, t *tracer, seed uint64, points []dse.Point, exp *expect, m *measurement, st *simStats, fill bool) {
	dir := e.scratch("traced-sweep")
	defer os.RemoveAll(dir)
	n := len(points)
	m.attempted += n
	cache := serve.Cache{Dir: filepath.Join(dir, "cache")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		m.failed += n
		m.fail(err)
		m.jobs = append(m.jobs, job{})
		return
	}
	var ckpt *dse.CheckpointWriter
	if !fill {
		var err error
		if ckpt, err = dse.OpenCheckpointWriter(filepath.Join(dir, "checkpoint.jsonl")); err != nil {
			m.failed += n
			m.fail(err)
			m.jobs = append(m.jobs, job{})
			return
		}
	}

	runtime.GC()
	start := time.Now()
	root := t.begin("serve.run", -1)
	if !fill {
		for _, p := range points {
			key := dse.DigestKey(p)
			t.do("serve.cache_load", root, func() { cache.LoadAt(key, seed, 0) })
		}
	}
	recs := make([]dse.Record, n)
	var (
		mu       sync.Mutex
		next     atomic.Int64
		wg       sync.WaitGroup
		writeErr error
	)
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				rec := evaluateTraced(t, root, points[k], seed, st)
				rec.Index = k
				mu.Lock()
				if ckpt != nil {
					t.do("dse.checkpoint_append", root, func() {
						if err := ckpt.Append(rec); err != nil && writeErr == nil {
							writeErr = err
						}
					})
				}
				t.do("serve.cache_save", root, func() {
					if err := cache.Save(rec); err != nil && writeErr == nil {
						writeErr = err
					}
				})
				recs[k] = rec
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.end(root)
	wall := time.Since(start)
	if ckpt != nil {
		if err := ckpt.Close(); err != nil && writeErr == nil {
			writeErr = err
		}
	}
	if writeErr != nil {
		m.fail(fmt.Errorf("traced sweep: %w", writeErr))
		m.failed++
	}
	m.failed += exp.tally(recordLines(recs), nil)
	m.jobs = append(m.jobs, job{wall: wall, records: n})
}
