package fleet

import (
	"context"
	"errors"

	"repro/internal/dse"
)

// RunSearch executes a successive-halving search across the fleet: every
// rung of the ladder is an ordinary fleet.Run of that rung's sweep spec —
// sharded over the workers, leased under TTL heartbeats, merged with
// fidelity-scoped dedup — and promotion between rungs happens on the
// coordinator. All rungs share cfg.Checkpoint, as a local search does:
// records are fidelity-tagged, so each rung resumes only its own lines and
// keeps the others. A coordinator killed at any rung resumes with zero
// re-evaluation, and the finished file is byte-identical to a local
// search's.
func RunSearch(ctx context.Context, spec dse.SearchSpec, cfg Config) (*dse.SearchResult, error) {
	if cfg.Checkpoint == "" {
		return nil, errors.New("fleet: checkpoint path required")
	}
	return dse.Search(ctx, spec, func(ctx context.Context, sw dse.SweepSpec) (*dse.ResultSet, error) {
		sw.Checkpoint = ""
		res, err := Run(ctx, sw, cfg)
		if err != nil {
			return nil, err
		}
		return &dse.ResultSet{Points: sw.Points(), Records: res.Records, Evaluated: res.Fresh}, nil
	})
}
