// Package serve is the sweep-serving layer: the single runner that executes
// a dse.SweepSpec for every entry point (cmd/dse and the bishopd daemon run
// the identical code path), a digest-addressed result cache that makes
// repeated evaluations O(1) disk lookups, a bounded job manager with
// admission control and cancellation, and the HTTP/JSON handlers bishopd
// mounts (submit a spec, stream records as NDJSON in the checkpoint line
// format, fetch live Pareto frontiers, evaluate single points, list backend
// schemas).
package serve

import (
	"context"
	"fmt"

	"repro/internal/dse"
	"repro/internal/workload"
)

// RunOptions attaches the serving-layer machinery to one spec execution.
type RunOptions struct {
	// Cache, when non-nil, is consulted for every shard-assigned point
	// before the sweep starts (hits are adopted without simulation) and
	// receives every fresh record as it completes.
	Cache *Cache

	// OnRecord, when non-nil, observes every record the run contributes, as
	// soon as it is known: cache hits first (before the sweep starts), then
	// fresh evaluations in enumeration order. Records recovered from a spec
	// checkpoint are not streamed here — they surface in the final result
	// set. Calls are serialized.
	OnRecord func(dse.Record)
}

// RunResult is the outcome of one spec execution.
type RunResult struct {
	Set *dse.ResultSet
	// CacheHits counts shard-assigned points adopted from the result cache;
	// CacheMisses counts fresh evaluations (each published back to the
	// cache when one is attached).
	CacheHits, CacheMisses int

	// Search carries the rung progression of a RunSearch execution; nil for
	// plain sweeps.
	Search *dse.SearchResult
}

// Run executes a sweep spec: validates it, points the process-wide trace
// store at the spec's trace directory (when set), enumerates the point set,
// adopts cached records, and drives dse.Sweep under ctx. Both cmd/dse and
// the daemon call exactly this function, which is what pins their record
// sets byte-identical for identical specs.
func Run(ctx context.Context, spec dse.SweepSpec, opt RunOptions) (*RunResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.TraceDir != "" {
		workload.SetTraceDir(spec.TraceDir)
	}
	points := spec.Points()
	cfg := spec.Config()
	res := &RunResult{}

	if opt.Cache != nil {
		var sel map[string]bool
		if cfg.Select != nil {
			sel = make(map[string]bool, len(cfg.Select))
			for _, d := range cfg.Select {
				sel[d] = true
			}
		}
		seen := map[string]bool{}
		for i, p := range points {
			if i%cfg.Shards != cfg.Shard {
				continue
			}
			key := fmt.Sprintf("%016x", p.Digest())
			if seen[key] || (sel != nil && !sel[key]) {
				continue
			}
			seen[key] = true
			if rec, ok := opt.Cache.LoadAt(key, cfg.Seed, cfg.Fidelity); ok {
				rec.Index = i
				cfg.Preloaded = append(cfg.Preloaded, rec)
				res.CacheHits++
				if opt.OnRecord != nil {
					opt.OnRecord(rec)
				}
			}
		}
	}
	if opt.Cache != nil || opt.OnRecord != nil {
		cache, emit := opt.Cache, opt.OnRecord
		// Called under the sweep's internal lock: the counter and the
		// callback need no extra synchronization, and the lock's release at
		// Sweep return publishes them to this goroutine.
		cfg.OnRecord = func(rec dse.Record) {
			res.CacheMisses++
			if cache != nil {
				cache.Save(rec) // best-effort: a failed publish only costs a later re-evaluation
			}
			if emit != nil {
				emit(rec)
			}
		}
	}

	rs, err := dse.Sweep(ctx, points, cfg)
	res.Set = rs
	return res, err
}

// RunSearch executes a successive-halving search spec, driving every rung
// through Run — so the result cache (fidelity-keyed), the trace store, and
// record streaming behave exactly as they do for plain sweeps, and a
// resumed search adopts completed evaluations from both the checkpoint and
// the cache. The returned result's Set is the final full-fidelity rung's
// record set with Evaluated widened to the cross-rung fresh-simulation
// total (so job accounting reflects the whole search); the per-rung
// breakdown is in Search.
func RunSearch(ctx context.Context, spec dse.SearchSpec, opt RunOptions) (*RunResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &RunResult{}
	sr, err := dse.Search(ctx, spec, func(ctx context.Context, sw dse.SweepSpec) (*dse.ResultSet, error) {
		rr, rerr := Run(ctx, sw, opt)
		if rr != nil {
			res.CacheHits += rr.CacheHits
			res.CacheMisses += rr.CacheMisses
		}
		if rr == nil {
			return nil, rerr
		}
		return rr.Set, rerr
	})
	res.Search = sr
	if sr != nil && sr.Final != nil {
		set := *sr.Final
		set.Evaluated = sr.Evaluated
		res.Set = &set
	}
	return res, err
}
