// Command bishopctl drives a fleet of bishopd workers from the command
// line. Its run verb executes a saved sweep spec across remote workers
// through the internal/fleet coordinator: the point set is sharded, shards
// are leased to workers under TTL heartbeats, worker faults (dead hosts,
// dropped or truncated streams, stalled connections, full queues) are
// retried, re-leased, or absorbed by per-worker circuit breakers, and
// every record streams into one durable JSONL checkpoint. The checkpoint is
// resumable — re-running the same command after a coordinator crash picks
// up where it stopped without re-evaluating completed points — and on
// success holds the enumeration-ordered record set, byte-identical to
// `dse -spec spec.json -checkpoint out.jsonl` run on one machine.
//
// The search verb runs a saved successive-halving search spec (as written
// by dse -print-spec in search mode) the same way: every rung of the
// fidelity ladder is a fleet run of that rung's sweep, all rungs share the
// one checkpoint, and promotion happens on the coordinator. A coordinator
// killed at any rung resumes from the checkpoint with zero re-evaluation,
// and the finished file is byte-identical to `dse -search search.json
// -checkpoint out.jsonl` run on one machine.
//
// Usage:
//
//	bishopctl run -spec sweep.json -workers host1:8372,host2:8372 -checkpoint out.jsonl
//	bishopctl run -spec sweep.json -workers host1:8372,host2:8372 -checkpoint out.jsonl \
//	    -shards 8 -lease-ttl 1m -frontier frontier.json
//	bishopctl search -spec search.json -workers host1:8372,host2:8372 -checkpoint out.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dse"
	"repro/internal/fleet"
)

func main() {
	if len(os.Args) < 2 || (os.Args[1] != "run" && os.Args[1] != "search") {
		fmt.Fprintln(os.Stderr, "usage: bishopctl {run|search} -spec spec.json -workers host1,host2,... -checkpoint out.jsonl")
		os.Exit(2)
	}
	verb := os.Args[1]
	fs := flag.NewFlagSet("bishopctl "+verb, flag.ExitOnError)
	specPath := fs.String("spec", "", "saved spec (JSON, as written by dse -print-spec)")
	workers := fs.String("workers", "", "comma-separated bishopd workers (host:port or http:// URLs)")
	checkpoint := fs.String("checkpoint", "", "durable merged JSONL checkpoint (resumable; a search keeps every rung in it)")
	shards := fs.Int("shards", 0, "shard count (0 = one per worker)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "silence budget per leased shard before it is re-leased")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout against workers")
	frontier := fs.String("frontier", "", "write the merged Pareto frontier JSON to this path")
	quiet := fs.Bool("q", false, "suppress progress lines")
	fs.Parse(os.Args[2:])

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bishopctl:", err)
		os.Exit(1)
	}
	if *specPath == "" || *workers == "" || *checkpoint == "" {
		fmt.Fprintf(os.Stderr, "bishopctl %s: -spec, -workers, and -checkpoint are required\n", verb)
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fail(err)
	}

	var list []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			list = append(list, w)
		}
	}
	cfg := fleet.Config{
		Workers:    list,
		Shards:     *shards,
		Checkpoint: *checkpoint,
		LeaseTTL:   *leaseTTL,
		Worker:     fleet.WorkerConfig{RequestTimeout: *timeout},
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		done := 0
		cfg.OnRecord = func(dse.Record) {
			done++
			fmt.Fprintf(os.Stderr, "\rbishopctl: %d records merged", done)
		}
	}

	// SIGINT/SIGTERM abort the coordinator; the checkpoints keep every
	// merged record, so the identical command resumes the work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if verb == "search" {
		spec, err := dse.DecodeSearchSpec(data)
		if err != nil {
			fail(err)
		}
		cfg.Worker.Seed = spec.Normalized().Seed
		runSearch(ctx, spec, cfg, list, *frontier, *quiet, fail)
		return
	}

	spec, err := dse.DecodeSpec(data)
	if err != nil {
		fail(err)
	}
	cfg.Worker.Seed = spec.Normalized().Seed

	res, err := fleet.Run(ctx, spec, cfg)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("bishopctl: %d records (%d resumed, %d fresh) across %d workers, %d re-leases\n",
		len(res.Records), res.Resumed, res.Fresh, len(list), res.ReLeases)
	for _, name := range res.WorkerNames() {
		fmt.Printf("bishopctl:   %-40s %d records\n", name, res.WorkerRecords[name])
	}
	writeFrontier(*frontier, res.Records, fail)
}

// runSearch executes a successive-halving search across the fleet and
// reports the rung progression plus the survivor frontier.
func runSearch(ctx context.Context, spec dse.SearchSpec, cfg fleet.Config, list []string, frontier string, quiet bool, fail func(error)) {
	sr, err := fleet.RunSearch(ctx, spec, cfg)
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fail(err)
	}
	norm := spec.Normalized()
	grid := len(norm.Points())
	fullFidelity := 0
	for i, rung := range sr.Rungs {
		label := fmt.Sprintf("fidelity 1/%d", rung.Fidelity)
		if rung.Fidelity <= 1 {
			label = "full fidelity"
			fullFidelity = rung.Candidates
		}
		fmt.Printf("bishopctl: rung %d: %-13s %3d candidates, %3d evaluated, %3d promoted\n",
			i+1, label, rung.Candidates, rung.Evaluated, rung.Survivors)
	}
	fmt.Printf("bishopctl: search total: %d fresh evaluations across %d workers\n", sr.Evaluated, len(list))
	fmt.Printf("bishopctl: full-fidelity evaluations: %d of %d grid points\n", fullFidelity, grid)
	if sr.Final != nil {
		writeFrontier(frontier, sr.Final.Records, fail)
	}
}

// writeFrontier dumps the latency/energy Pareto frontier of recs when a
// destination path was given.
func writeFrontier(path string, recs []dse.Record, fail func(error)) {
	if path == "" {
		return
	}
	front := dse.Frontier(recs)
	data, err := dse.EncodeFrontier(front, len(recs))
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("bishopctl: frontier (%d points) written to %s\n", len(front), path)
}
