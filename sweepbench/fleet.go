package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// Fleet shape of serve-replay's traced merge: 2 in-process bishopd workers,
// the baseline grid in 4 shards.
const (
	fleetWorkers = 2
	fleetShards  = 4
)

// workerSkew is max ÷ min records merged per worker; a worker that merged
// nothing counts as one record, so the ratio stays finite.
func workerSkew(byWorker map[string]int) float64 {
	lo, hi := -1, 0
	for _, n := range byWorker {
		n = max(n, 1)
		if lo < 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	if len(byWorker) < fleetWorkers {
		lo = 1 // a worker missing from the map merged nothing
	}
	return float64(hi) / float64(lo)
}

// fleetMerge runs one merge of spec on fresh workers with cold result caches
// into a fresh merged checkpoint, and checks it. The merge is one fleet.run
// span; the durable work inside it — the coordinator's checkpoint appends
// and the workers' cache publications — is replayed afterwards, one span per
// call, outside the merge's span.
func fleetMerge(ctx context.Context, e *env, spec dse.SweepSpec, exp *expect, m *measurement, t *tracer) fleet.Result {
	m.attempted += len(exp.points)
	var urls, caches []string
	var daemons []*daemon
	for w := 0; w < fleetWorkers; w++ {
		dir := e.scratch("worker-cache")
		caches = append(caches, dir)
		d := startDaemon(&serve.Cache{Dir: dir})
		daemons = append(daemons, d)
		urls = append(urls, d.srv.URL)
	}
	ckpt := e.scratch("merged") + ".jsonl"
	defer func() {
		os.Remove(ckpt)
		for _, dir := range caches {
			os.RemoveAll(dir)
		}
	}()

	root := t.begin("fleet.run", -1)
	res, err := fleet.Run(ctx, spec, fleet.Config{Workers: urls, Shards: fleetShards, Checkpoint: ckpt})
	t.end(root)
	for _, d := range daemons {
		d.close()
	}
	if err != nil {
		m.fail(err)
	}
	lines := recordLines(res.Records)
	exp.adopt(lines)
	m.failed += exp.tally(lines, nil)
	if data, err := os.ReadFile(ckpt); err == nil {
		m.counters["dse.checkpoint_bytes"] = float64(len(data))
		m.counters["dse.checkpoint_out_of_order"] = float64(outOfOrder(data))
	}
	if err := replayMergeWrites(e, t, res.Records); err != nil {
		m.fail(err)
		m.failed++
	}
	return res
}

// replayMergeWrites replays a merge's durable writes: every record appended
// to a merged checkpoint and published to a worker cache.
func replayMergeWrites(e *env, t *tracer, recs []dse.Record) error {
	dir := e.scratch("merge-replay")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, err := dse.OpenCheckpointWriter(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		return err
	}
	cache := serve.Cache{Dir: filepath.Join(dir, "cache")}
	root := t.begin("merge.writes", -1)
	defer t.end(root)
	for _, rec := range recs {
		t.do("dse.checkpoint_append", root, func() {
			if aerr := w.Append(rec); aerr != nil && err == nil {
				err = aerr
			}
		})
		t.do("serve.cache_save", root, func() {
			if serr := cache.Save(rec); serr != nil && err == nil {
				err = serr
			}
		})
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replay merge writes: %w", err)
	}
	return nil
}
