package main

import (
	"slices"
	"time"

	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// Input streams of the workload seed.
const (
	streamTraceSeed uint64 = iota + 1
	streamReplay
	streamReplayTraced
	streamSpotCheck
)

// models and bsas are the workload axes every grid crosses: Table 2
// models 1–5 with and without BSA, ten traces per trace seed.
var (
	models = []int{1, 2, 3, 4, 5}
	bsas   = []bool{false, true}
)

// bishopSpace is the 120-point full-fidelity Bishop grid: 5 models × BSA ×
// shapes {4x2, 2x2} × {θ_s=−1 at split 0.25 or 0.75, θ_s=4} × ECP θ {0, 6}.
// Every trace is shared by 12 points.
func bishopSpace() dse.Space {
	return dse.Space{
		Models:       models,
		BSA:          bsas,
		Shapes:       []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}},
		ThetaS:       []int{-1, 4},
		SplitTargets: []float64{0.25, 0.75},
		ECPThetas:    []int{0, 6},
	}
}

// baselineSpace is the 640-point PTB and GPU grid: 5 models × BSA × (32
// ptb.Options + 32 gpu.Options). It runs no Bishop simulation.
func baselineSpace() dse.Space {
	var ptbs []ptb.Options
	for _, tw := range []int{2, 4, 5, 8, 10, 16, 20, 32} {
		for _, lanes := range []int{16, 32, 64, 128} {
			ptbs = append(ptbs, ptb.Options{Tech: hw.Default28nm(), Array: hw.PTBArray(), TimeWindow: tw, OutLanes: lanes})
		}
	}
	var gpus []gpu.Options
	for _, util := range []float64{0.03, 0.05, 0.07, 0.10} {
		for _, launch := range []float64{10e-6, 20e-6, 30e-6, 50e-6} {
			for _, watts := range []float64{5, 10} {
				o := gpu.DefaultOptions()
				o.Utilization, o.KernelOverhead, o.PowerW = util, launch, watts
				gpus = append(gpus, o)
			}
		}
	}
	return dse.Space{Models: models, BSA: bsas, Backends: []string{"ptb", "gpu"}, PTB: ptbs, GPU: gpus}
}

// warmTraces generates (or loads from the configured trace store) every
// trace the grids read, as a sweep's first points would.
func warmTraces(seed uint64) {
	zoo, scen := transformer.ModelZoo(), workload.Scenarios()
	for _, m := range models {
		for _, bsa := range bsas {
			workload.CachedTrace(zoo[m-1], scen[m], workload.TraceOptions{BSA: bsa}, seed)
		}
	}
}

// replayJob is one serve-replay request: a distinct spec (a select subset
// of the cached grid) due at offset at from the start of the load.
type replayJob struct {
	at   time.Duration
	spec dse.SweepSpec
	want []int // selected enumeration indices, ascending
}

// replayJobSize is the number of grid points each serve-replay job selects.
const replayJobSize = 512

// replaySchedule draws n jobs at rate jobs/s: job i is due at (i+u/2)/rate
// with u uniform in [0,1) — a fixed rate with seeded jitter of up to half a
// period, so consecutive jobs are at least half a period apart and queueing
// comes from the daemon falling behind the rate, not from drawn bursts. Each job selects a seeded subset of the grid; specs whose digest
// is in seen (or repeats one drawn here) are redrawn, so every job is new to
// the daemon while every point in it is a cache hit.
func replaySchedule(base dse.SweepSpec, points []dse.Point, n int, rate float64, seed, stream uint64, seen map[string]bool) []replayJob {
	rng := seededRNG(seed, stream)
	digests := make([]string, len(points))
	for i, p := range points {
		digests[i] = dse.DigestKey(p)
	}
	jobs := make([]replayJob, 0, n)
	period := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		at := time.Duration((float64(i) + rng.Float64()/2) * period)
		for {
			idx := rng.Perm(len(points))[:min(replayJobSize, len(points))]
			slices.Sort(idx)
			spec := base
			spec.Select = make([]string, len(idx))
			for k, pi := range idx {
				spec.Select[k] = digests[pi]
			}
			if id := spec.Normalized().ID(); !seen[id] {
				seen[id] = true
				jobs = append(jobs, replayJob{at: at, spec: spec, want: idx})
				break
			}
		}
	}
	return jobs
}
