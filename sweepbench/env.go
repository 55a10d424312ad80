package main

import (
	"bufio"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/spike"
)

// env is one benchmark run: its options, scratch directory and the seeds
// every input derives from.
type env struct {
	opt       options
	dir       string // scratch root inside the checkout, removed at exit
	traceSeed uint64 // trace seed of every spec, derived from the workload seed
	procs     int    // GOMAXPROCS: sweep workers and client connections
	seconds   time.Duration
	files     int // scratch-name counter
}

func newEnv(o options, dir string) *env {
	return &env{
		opt:       o,
		dir:       dir,
		traceSeed: traceSeedFor(o.seed),
		procs:     runtime.GOMAXPROCS(0),
		seconds:   time.Duration(o.seconds * float64(time.Second)),
	}
}

// traceSeedFor maps a workload seed onto the trace seed the specs carry.
// The default seed keeps trace seed 1, the specs' own default.
func traceSeedFor(seed uint64) uint64 {
	if seed == defaultSeed {
		return 1
	}
	return 2 + seededRNG(seed, streamTraceSeed).Uint64N(1<<40)
}

// seededRNG returns the generator for one named input stream of a workload
// seed, so adding a stream never shifts another's draws.
func seededRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// scratch returns a fresh path under the run's scratch directory.
func (e *env) scratch(name string) string {
	e.files++
	return filepath.Join(e.dir, name+"-"+strconv.Itoa(e.files))
}

// hostInfo is printed with every result and stored in every span dump, so
// runs from different host classes or kernel sets are never compared
// silently.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	TraceSeed  uint64  `json:"trace_seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"spike_kernel"`
	GoVersion  string  `json:"go_version"`
}

func (e *env) hostInfo() hostInfo {
	return hostInfo{
		Workload: e.opt.workload, Seed: e.opt.seed, TraceSeed: e.traceSeed,
		Seconds: e.opt.seconds, Trace: e.opt.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: e.procs, CPUModel: cpuModel(),
		Kernel: spike.ActiveKernel(), GoVersion: runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// usage is a snapshot of the process's CPU time and cumulative heap
// allocation; the difference of two snapshots is the cost of the work in
// between.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

func (u usage) sub(v usage) usage { return usage{cpu: u.cpu - v.cpu, alloc: u.alloc - v.alloc} }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// quantile is the linear-interpolation quantile (q in [0,1]) of xs; 0 for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
