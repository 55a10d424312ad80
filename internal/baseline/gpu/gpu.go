// Package gpu models the edge-GPU baseline (NVIDIA Jetson Nano) with a
// roofline-plus-overhead model: each layer's latency is the maximum of its
// compute time at a utilization-derated peak and its memory time at peak
// bandwidth, plus a fixed per-kernel launch overhead. Spiking workloads map
// poorly onto the GPU — binary activations are computed as dense fp16 GEMMs
// with no sparsity benefit, and LIF state updates serialize across time
// steps — which is what produces the two-orders-of-magnitude gap the paper
// reports (§6.2).
package gpu

import (
	"fmt"

	"repro/internal/canon"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// Options holds the Jetson Nano model constants.
type Options struct {
	PeakFLOPS      float64 // fp16 peak (472 GFLOP/s)
	BandwidthBps   float64 // LPDDR4 (25.6 GB/s)
	Utilization    float64 // achieved fraction of peak on small GEMMs
	KernelOverhead float64 // seconds per kernel launch
	PowerW         float64 // board power under load
}

// DefaultOptions returns the Jetson Nano configuration.
func DefaultOptions() Options {
	return Options{
		PeakFLOPS:      472e9,
		BandwidthBps:   25.6e9,
		Utilization:    0.07, // small spiking GEMMs achieve a sliver of peak
		KernelOverhead: 30e-6,
		PowerW:         10,
	}
}

// normalize fills unset (non-positive) fields with the Jetson Nano defaults,
// field by field — mirroring ptb.Options.normalize. A partially-specified
// Options therefore keeps its explicit knobs instead of the historical
// all-or-nothing PeakFLOPS sentinel (which silently discarded them, or worse,
// divided by a zero Utilization).
func (o *Options) normalize() {
	def := DefaultOptions()
	if o.PeakFLOPS <= 0 {
		o.PeakFLOPS = def.PeakFLOPS
	}
	if o.BandwidthBps <= 0 {
		o.BandwidthBps = def.BandwidthBps
	}
	if o.Utilization <= 0 {
		o.Utilization = def.Utilization
	}
	if o.KernelOverhead <= 0 {
		o.KernelOverhead = def.KernelOverhead
	}
	if o.PowerW <= 0 {
		o.PowerW = def.PowerW
	}
}

// Validate reports the first non-finite or negative field of o by name
// ("Options.PeakFLOPS is NaN"). Zero fields are legal: normalize treats
// them as "use the default".
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PeakFLOPS", o.PeakFLOPS}, {"BandwidthBps", o.BandwidthBps},
		{"Utilization", o.Utilization}, {"KernelOverhead", o.KernelOverhead},
		{"PowerW", o.PowerW},
	} {
		if s := hw.NonFinite(f.v); s != "" {
			return fmt.Errorf("Options.%s is %s", f.name, s)
		}
		if f.v < 0 {
			return fmt.Errorf("Options.%s is negative (%g)", f.name, f.v)
		}
	}
	return nil
}

// Digest returns a stable fingerprint of the *normalized* configuration,
// following the accel.Options.Digest conventions.
func (o Options) Digest() uint64 {
	o.normalize()
	return canon.Digest(o)
}

// Simulate estimates end-to-end latency/energy of the traced model on the
// edge GPU. Results are reported through hw.Report with cycles expressed at
// the Bishop 500 MHz clock so ratios are directly comparable.
func Simulate(tr *transformer.Trace, opt Options) *hw.Report {
	opt.normalize()
	tech := hw.Default28nm()
	rep := &hw.Report{Name: "EdgeGPU", Tech: tech}
	for _, l := range tr.Layers {
		var lat float64
		switch l.Kind {
		case transformer.KindProjection, transformer.KindMLP:
			T, N := float64(l.In.T), float64(l.In.N)
			flops := 2 * T * N * float64(l.DIn) * float64(l.DOut)
			bytes := float64(l.DIn*l.DOut)*2 + T*N*float64(l.DIn+l.DOut)*2
			// One batched GEMM over (T·N) rows plus the LIF elementwise
			// kernel, which must run once per time step (state dependence).
			kernels := 1 + l.In.T
			lat = layerTime(flops, bytes, kernels, opt)
		case transformer.KindAttention:
			T, N, D := float64(l.Q.T), float64(l.Q.N), float64(l.Q.D)
			flops := 2 * T * N * N * D * 2 // S=QKᵀ and Y=SV
			bytes := T*N*D*3*2 + T*N*N*2
			// Per-head kernels for each product plus LIF per step.
			kernels := 2*l.Heads + l.Q.T
			lat = layerTime(flops, bytes, kernels, opt)
		default:
			continue
		}
		var r hw.Result
		r.Cycles = int64(lat * tech.ClockHz)
		r.EStatic = opt.PowerW * lat * 1e12 // board energy, pJ
		rep.Layers = append(rep.Layers, hw.LayerReport{
			Block: l.Block, Group: l.Group, Name: l.Name, Core: "gpu", Result: r,
		})
	}
	for _, l := range rep.Layers {
		rep.Total.Add(l.Result)
	}
	return rep
}

func layerTime(flops, bytes float64, kernels int, opt Options) float64 {
	compute := flops / (opt.PeakFLOPS * opt.Utilization)
	mem := bytes / opt.BandwidthBps
	t := compute
	if mem > t {
		t = mem
	}
	return t + float64(kernels)*opt.KernelOverhead
}
