// Command dse sweeps the accelerator design space: it enumerates a
// declarative grid (or seeded-random sample) over accel.Options × Table 2
// workloads × accelerator backends (-backends bishop,ptb,gpu), evaluates
// every point on the parallel simulation engine, and reports the
// latency/energy Pareto frontier — cross-backend when several backends are
// swept — as an ASCII table and JSON artifact.
//
// The flags compile into a dse.SweepSpec — the same document cmd/bishopd
// accepts over HTTP — and both front ends execute it through serve.Run, so
// a spec produces identical records whether run here or submitted to the
// daemon. -print-spec emits the compiled spec instead of running it;
// -spec file.json runs a saved spec wholesale.
//
// Sweeps are resumable and shardable: with -checkpoint every evaluated
// point is durably appended as it completes, so an interrupted run picks up
// where it stopped; with -shard i/n the point set is partitioned
// deterministically across n machines and the shard checkpoints merge into
// the unsharded result. With -trace-dir the shards read one digest-addressed
// trace set (generated once, e.g. by `trace pack`, or persisted on first
// miss) instead of regenerating identical traces per process. With
// -result-cache the sweep consults (and feeds) a digest-addressed record
// cache, the same store bishopd uses, so repeated specs cost disk reads.
//
// Usage:
//
//	dse -models 1,3 -splits 0.1,0.25,0.5,0.75,0.9            # θ_s balancing sweep
//	dse -models 3 -shapes 1x2,2x2,4x2,4x4 -ecp 0,6           # TTB volume × ECP grid
//	dse -models 1,2,3,4,5 -bsa false,true -checkpoint dse.jsonl -shard 0/4
//	dse -random 64 -seed 7 -frontier frontier.json           # random search
//	dse -models 3 -backends bishop,ptb,gpu -ecp 0,6          # cross-backend frontier
//	dse -models 3 -ecp 0,6 -print-spec > sweep.json          # compile, don't run
//	dse -spec sweep.json -records records.jsonl              # run a saved spec
//
// Successive-halving search (-rungs, or -search file.json) triages a large
// space with cheap low-fidelity proxy evaluations before spending full
// simulations on the survivors: -rungs 8,4,1 evaluates every candidate on a
// 1/8-volume trace, promotes the best 1/eta by -objective (ties broken by
// point digest, so the search is deterministic), re-ranks them at 1/4, and
// runs only the final survivors at full fidelity. Records carry a fidelity
// tag, so a search sharing -checkpoint/-result-cache with plain sweeps stays
// exact, and an interrupted search resumes with zero re-evaluation.
//
//	dse -models 4 -bsa false,true -ecp 0,2,4,6 -rungs 8,4,1 -eta 2
//	dse -models 4 -ecp 0,6 -rungs 8,1 -print-spec > search.json
//	dse -search search.json -checkpoint search.jsonl -frontier front.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	models := flag.String("models", "3", "comma-separated Table 2 model indices (1-5)")
	bsa := flag.String("bsa", "false", "comma-separated BSA axis values (false,true)")
	backends := flag.String("backends", "bishop", "comma-separated accelerator backends (bishop,ptb,gpu)")
	shapes := flag.String("shapes", "", "comma-separated TTB shapes as BStxBSn, e.g. 4x2,2x2 (default 4x2)")
	thetas := flag.String("thetas", "", "comma-separated stratification thresholds; -1 = split balancing (default -1)")
	splits := flag.String("splits", "", "comma-separated dense-fraction targets for balancing (default 0.5)")
	stratify := flag.String("stratify", "", "comma-separated stratify axis values (default true)")
	ecp := flag.String("ecp", "", "comma-separated ECP thetas; 0 = off (default 0)")
	random := flag.Int("random", 0, "sample N random points from the space instead of the full grid")
	seed := flag.Uint64("seed", 1, "trace seed (and random-search seed)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint path; enables resume")
	traceDir := flag.String("trace-dir", "", "shared trace-store directory: load traces by digest, generate+persist on miss (lets shards share one trace set)")
	shard := flag.String("shard", "", "shard spec i/n: evaluate the points whose index mod n is i (a repeated digest only in the shard of its first occurrence)")
	jobs := flag.Int("jobs", 0, "parallel evaluators (0 = all CPUs)")
	frontier := flag.String("frontier", "", "write the Pareto frontier JSON to this path")
	specPath := flag.String("spec", "", "run this saved sweep spec instead of compiling one from flags")
	printSpec := flag.Bool("print-spec", false, "print the compiled sweep spec as JSON and exit without evaluating")
	records := flag.String("records", "", "write the merged record set as JSONL to this path")
	resultCache := flag.String("result-cache", "", "digest-addressed result-cache directory (shared with bishopd)")
	rungs := flag.String("rungs", "", "successive-halving fidelity ladder as trace-scale divisors, e.g. 8,4,1 (enables search mode)")
	eta := flag.Int("eta", 0, "halving ratio: keep ~1/eta of each rung's candidates (default 2; search mode)")
	objective := flag.String("objective", "", "promotion objective: latency, energy, edp, or pareto (default edp; search mode)")
	minSurvivors := flag.Int("min-survivors", 0, "promotion floor per rung (default 1; search mode)")
	searchPath := flag.String("search", "", "run this saved search spec (successive-halving) instead of compiling one from flags")
	flag.Parse()

	if *searchPath != "" || *rungs != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "spec":
				fatal(fmt.Errorf("-spec conflicts with search mode; use -search for a saved search document"))
			case "shard":
				fatal(fmt.Errorf("-shard does not apply to search mode (use bishopctl search for distributed runs)"))
			}
			if *searchPath != "" {
				switch f.Name {
				case "models", "bsa", "backends", "shapes", "thetas", "splits",
					"stratify", "ecp", "random", "seed",
					"rungs", "eta", "objective", "min-survivors":
					fatal(fmt.Errorf("-%s conflicts with -search; edit the spec file instead", f.Name))
				}
			}
		})
		var spec dse.SearchSpec
		if *searchPath != "" {
			data, err := os.ReadFile(*searchPath)
			if err != nil {
				fatal(err)
			}
			if spec, err = dse.DecodeSearchSpec(data); err != nil {
				fatal(err)
			}
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "checkpoint":
					spec.Checkpoint = *checkpoint
				case "trace-dir":
					spec.TraceDir = *traceDir
				case "jobs":
					spec.Jobs = *jobs
				}
			})
		} else {
			space, err := parseSpace(*models, *bsa, *shapes, *thetas, *splits, *stratify, *ecp)
			if err != nil {
				fatal(err)
			}
			space.Backends = split(*backends)
			ladder, err := csvInts(*rungs)
			if err != nil {
				fatal(fmt.Errorf("-rungs: %w", err))
			}
			spec = dse.SearchSpec{
				Space: space, Random: *random, Seed: *seed,
				Rungs: ladder, Eta: *eta, Objective: *objective, MinSurvivors: *minSurvivors,
				Checkpoint: *checkpoint, TraceDir: *traceDir, Jobs: *jobs,
			}
		}
		runSearch(spec, *printSpec, *frontier, *records, *resultCache)
		return
	}
	for _, bad := range []struct {
		set  bool
		name string
	}{{*eta != 0, "eta"}, {*objective != "", "objective"}, {*minSurvivors != 0, "min-survivors"}} {
		if bad.set {
			fatal(fmt.Errorf("-%s only applies to search mode (-rungs or -search)", bad.name))
		}
	}

	var spec dse.SweepSpec
	if *specPath != "" {
		// A saved spec is the whole sweep definition: reject flags that
		// would silently change what it means. Execution attachments
		// (where to checkpoint, trace, parallelize) may still override.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "models", "bsa", "backends", "shapes", "thetas", "splits",
				"stratify", "ecp", "random", "seed", "shard":
				fatal(fmt.Errorf("-%s conflicts with -spec; edit the spec file instead", f.Name))
			}
		})
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		if spec, err = dse.DecodeSpec(data); err != nil {
			fatal(err)
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "checkpoint":
				spec.Checkpoint = *checkpoint
			case "trace-dir":
				spec.TraceDir = *traceDir
			case "jobs":
				spec.Jobs = *jobs
			}
		})
	} else {
		space, err := parseSpace(*models, *bsa, *shapes, *thetas, *splits, *stratify, *ecp)
		if err != nil {
			fatal(err)
		}
		space.Backends = split(*backends)
		spec = dse.SweepSpec{
			Space:      space,
			Random:     *random,
			Seed:       *seed,
			Checkpoint: *checkpoint,
			TraceDir:   *traceDir,
			Jobs:       *jobs,
		}
		if *shard != "" {
			if spec.Shard, spec.Shards, err = parseShard(*shard); err != nil {
				fatal(err)
			}
		}
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	if *printSpec {
		data, err := dse.EncodeSpec(spec)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}

	var opt serve.RunOptions
	if *resultCache != "" {
		opt.Cache = &serve.Cache{Dir: *resultCache}
	}
	res, err := serve.Run(context.Background(), spec, opt)
	if err != nil {
		fatal(err)
	}
	rs := res.Set
	norm := spec.Normalized()
	fmt.Printf("evaluated %d points (%d reused from checkpoint or duplicates); %d/%d records (shard %d/%d, seed %d)\n",
		rs.Evaluated, len(rs.Records)-rs.Evaluated, len(rs.Records), len(rs.Points),
		norm.Shard, norm.Shards, norm.Seed)
	byBackend := dse.ByBackend(rs.Records)
	for _, name := range slices.Sorted(maps.Keys(byBackend)) {
		fmt.Printf("backend %s: %d records\n", name, len(byBackend[name]))
	}
	if norm.TraceDir != "" {
		h, m, e := workload.TraceStoreStats()
		fmt.Printf("trace store %s: %d hits, %d misses, %d errors\n", norm.TraceDir, h, m, e)
	}
	if *resultCache != "" {
		fmt.Printf("result cache %s: %d hits, %d misses\n", *resultCache, res.CacheHits, res.CacheMisses)
	}
	fmt.Println()

	front := dse.Frontier(rs.Records)
	fmt.Println("latency/energy Pareto frontier:")
	dse.FprintFrontier(os.Stdout, front)

	if *frontier != "" {
		data, err := dse.EncodeFrontier(front, len(rs.Records))
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*frontier, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d frontier points)\n", *frontier, len(front))
	}
	if *records != "" {
		if err := writeRecords(*records, rs.Records); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d records)\n", *records, len(rs.Records))
	}
	if !rs.Complete() {
		fmt.Printf("\n%d points remain (other shards, or resume with the same -checkpoint)\n",
			len(rs.Points)-len(rs.Records))
	}
}

// runSearch executes (or, with printSpec, just compiles) a
// successive-halving search and reports the rung progression, the survivor
// frontier, and the full-fidelity cost against the equivalent grid sweep.
func runSearch(spec dse.SearchSpec, printSpec bool, frontier, records, resultCache string) {
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	if printSpec {
		data, err := dse.EncodeSearchSpec(spec)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	var opt serve.RunOptions
	if resultCache != "" {
		opt.Cache = &serve.Cache{Dir: resultCache}
	}
	res, err := serve.RunSearch(context.Background(), spec, opt)
	if err != nil {
		fatal(err)
	}
	sr := res.Search
	norm := spec.Normalized()
	grid := len(norm.Points())
	fmt.Printf("search: objective %s, eta %d, rungs %v (seed %d)\n",
		norm.Objective, norm.Eta, norm.Rungs, norm.Seed)
	fullFidelity := 0
	for i, rung := range sr.Rungs {
		label := fmt.Sprintf("fidelity 1/%d", rung.Fidelity)
		if rung.Fidelity <= 1 {
			label = "full fidelity"
			fullFidelity = rung.Candidates
		}
		fmt.Printf("rung %d: %-13s %3d candidates, %3d evaluated, %3d promoted\n",
			i+1, label, rung.Candidates, rung.Evaluated, rung.Survivors)
	}
	fmt.Printf("search total: %d fresh evaluations this run\n", sr.Evaluated)
	fmt.Printf("full-fidelity evaluations: %d of %d grid points\n", fullFidelity, grid)
	if norm.TraceDir != "" {
		h, m, e := workload.TraceStoreStats()
		fmt.Printf("trace store %s: %d hits, %d misses, %d errors\n", norm.TraceDir, h, m, e)
	}
	if resultCache != "" {
		fmt.Printf("result cache %s: %d hits, %d misses\n", resultCache, res.CacheHits, res.CacheMisses)
	}
	fmt.Println()

	front := dse.Frontier(res.Set.Records)
	fmt.Println("survivor latency/energy Pareto frontier:")
	dse.FprintFrontier(os.Stdout, front)
	if frontier != "" {
		data, err := dse.EncodeFrontier(front, len(res.Set.Records))
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(frontier, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d frontier points)\n", frontier, len(front))
	}
	if records != "" {
		if err := writeRecords(records, res.Set.Records); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d survivor records)\n", records, len(res.Set.Records))
	}
}

// writeRecords dumps the merged record set as JSONL — the same line format
// the checkpoint and the daemon's record stream use.
func writeRecords(path string, recs []dse.Record) error {
	var buf strings.Builder
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

func parseSpace(models, bsa, shapes, thetas, splits, stratify, ecp string) (dse.Space, error) {
	var s dse.Space
	var err error
	if s.Models, err = csvInts(models); err != nil {
		return s, fmt.Errorf("-models: %w", err)
	}
	if s.BSA, err = csvBools(bsa); err != nil {
		return s, fmt.Errorf("-bsa: %w", err)
	}
	if s.Shapes, err = csvShapes(shapes); err != nil {
		return s, fmt.Errorf("-shapes: %w", err)
	}
	if s.ThetaS, err = csvInts(thetas); err != nil {
		return s, fmt.Errorf("-thetas: %w", err)
	}
	if s.SplitTargets, err = csvFloats(splits); err != nil {
		return s, fmt.Errorf("-splits: %w", err)
	}
	if s.Stratify, err = csvBools(stratify); err != nil {
		return s, fmt.Errorf("-stratify: %w", err)
	}
	if s.ECPThetas, err = csvInts(ecp); err != nil {
		return s, fmt.Errorf("-ecp: %w", err)
	}
	return s, nil
}

func parseShard(spec string) (shard, shards int, err error) {
	i := strings.IndexByte(spec, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("-shard: want i/n, got %q", spec)
	}
	if shard, err = strconv.Atoi(spec[:i]); err != nil {
		return 0, 0, fmt.Errorf("-shard: %w", err)
	}
	if shards, err = strconv.Atoi(spec[i+1:]); err != nil {
		return 0, 0, fmt.Errorf("-shard: %w", err)
	}
	if shards <= 0 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("-shard: %d/%d out of range", shard, shards)
	}
	return shard, shards, nil
}

func split(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func csvInts(s string) ([]int, error) {
	var out []int
	for _, p := range split(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func csvFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range split(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func csvBools(s string) ([]bool, error) {
	var out []bool
	for _, p := range split(s) {
		v, err := strconv.ParseBool(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func csvShapes(s string) ([]bundle.Shape, error) {
	var out []bundle.Shape
	for _, p := range split(s) {
		i := strings.IndexByte(p, 'x')
		if i < 0 {
			return nil, fmt.Errorf("shape %q: want BStxBSn", p)
		}
		bst, err := strconv.Atoi(p[:i])
		if err != nil {
			return nil, err
		}
		bsn, err := strconv.Atoi(p[i+1:])
		if err != nil {
			return nil, err
		}
		out = append(out, bundle.Shape{BSt: bst, BSn: bsn})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dse:", strings.TrimPrefix(err.Error(), "dse: "))
	os.Exit(1)
}
