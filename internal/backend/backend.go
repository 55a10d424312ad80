// Package backend abstracts "an accelerator model bound to a concrete
// configuration" behind one interface, so the evaluation stack — the DSE
// engine, the figure drivers, cmd/dse — can treat Bishop, the PTB baseline
// (HPCA'22 [27]), and the edge-GPU baseline uniformly. The paper's headline
// results (§6.1–§6.2) are cross-accelerator comparisons; with the backend a
// first-class coordinate, Pareto frontiers and sweeps compare *across*
// accelerators instead of only across Bishop configurations.
//
// The three kinds live in one fixed table under stable names ("bishop",
// "gpu", "ptb"). A Backend value carries its options, which encode and
// decode through the canon codec (unknown fields and invalid values
// reject), and fingerprints itself with its options' canon digest with the
// backend name folded in, so equal options on different backends never
// collide.
package backend

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/canon"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// Backend is one accelerator model bound to a concrete configuration.
// Implementations are small immutable values; Simulate must be safe for
// concurrent use (every simulator in this repo treats traces as read-only).
type Backend interface {
	// Name is the table name of the backend kind ("bishop", "ptb", "gpu").
	Name() string
	// Simulate runs the trace through the model and returns the per-layer
	// and end-to-end latency/energy report.
	Simulate(tr *transformer.Trace) *hw.Report
	// EncodeOptions serializes the bound options canonically (struct
	// declaration order), so equal configurations produce identical bytes.
	EncodeOptions() ([]byte, error)
	// Digest is a stable fingerprint of (name, normalized options): equal
	// across field reordering and default spellings, different across
	// backends and across any effective knob change.
	Digest() uint64
}

// Table names of the backend kinds.
const (
	// BishopName is the canonical backend: DSE records spell it as the
	// *absent* backend tag, so checkpoints that predate the backend
	// coordinate decode and resume unchanged.
	BishopName = "bishop"
	// GPUName is the edge-GPU (Jetson Nano) baseline, the paper's software
	// comparison point (§6.2).
	GPUName = "gpu"
	// PTBName is the Parallel Time Batching baseline (HPCA'22 [27]), the
	// paper's primary hardware comparison point (§6.1).
	PTBName = "ptb"
)

// Bishop wraps the accel simulator as a Backend.
type Bishop struct {
	Opt accel.Options
}

// Name implements Backend.
func (Bishop) Name() string { return BishopName }

// Simulate implements Backend. It uses the sequential per-layer walk
// (accel.SimulateSeq, bit-identical to the parallel accel.Simulate): the
// evaluation stack fans out across *points*, so nested per-layer workers
// would only fight over the pool.
func (b Bishop) Simulate(tr *transformer.Trace) *hw.Report {
	return accel.SimulateSeq(tr, b.Opt)
}

// EncodeOptions implements Backend.
func (b Bishop) EncodeOptions() ([]byte, error) { return canon.Encode(b.Opt) }

// Digest implements Backend: the options digest with the backend name
// folded in. Note dse.Point.Digest does NOT use this for bishop points — it
// keys them on the bare accel.Options.Digest so legacy checkpoint digests
// stay valid — but anything comparing Backend values directly gets the
// collision-free name-folded form.
func (b Bishop) Digest() uint64 { return FoldName(b.Opt.Digest(), BishopName) }

// GPU wraps the baseline/gpu roofline model as a Backend.
type GPU struct {
	Opt gpu.Options
}

// Name implements Backend.
func (GPU) Name() string { return GPUName }

// Simulate implements Backend.
func (b GPU) Simulate(tr *transformer.Trace) *hw.Report { return gpu.Simulate(tr, b.Opt) }

// EncodeOptions implements Backend.
func (b GPU) EncodeOptions() ([]byte, error) { return canon.Encode(b.Opt) }

// Digest implements Backend.
func (b GPU) Digest() uint64 { return FoldName(b.Opt.Digest(), GPUName) }

// PTB wraps the baseline/ptb simulator as a Backend.
type PTB struct {
	Opt ptb.Options
}

// Name implements Backend.
func (PTB) Name() string { return PTBName }

// Simulate implements Backend.
func (b PTB) Simulate(tr *transformer.Trace) *hw.Report { return ptb.Simulate(tr, b.Opt) }

// EncodeOptions implements Backend.
func (b PTB) EncodeOptions() ([]byte, error) { return canon.Encode(b.Opt) }

// Digest implements Backend.
func (b PTB) Digest() uint64 { return FoldName(b.Opt.Digest(), PTBName) }

// kind is one row of the backend table.
type kind struct {
	name string
	// def is the kind's paper-default configuration.
	def Backend
	// decode builds a Backend from a non-empty strict options document.
	decode func(options []byte) (Backend, error)
}

// kinds is the fixed backend table, sorted by name.
var kinds = [...]kind{
	{BishopName, Bishop{Opt: accel.DefaultOptions()}, decodeAs(func(o accel.Options) Backend { return Bishop{o} })},
	{GPUName, GPU{Opt: gpu.DefaultOptions()}, decodeAs(func(o gpu.Options) Backend { return GPU{o} })},
	{PTBName, PTB{Opt: ptb.DefaultOptions()}, decodeAs(func(o ptb.Options) Backend { return PTB{o} })},
}

// decodeAs returns a decoder that reads a T through canon.Decode and binds
// it with wrap.
func decodeAs[T canon.Validator](wrap func(T) Backend) func([]byte) (Backend, error) {
	return func(options []byte) (Backend, error) {
		o, err := canon.Decode[T](options)
		if err != nil {
			return nil, err
		}
		return wrap(o), nil
	}
}

// Names returns the backend names, sorted.
func Names() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return names
}

// Registered reports whether name is a known backend kind.
func Registered(name string) bool {
	_, err := lookup(name)
	return err == nil
}

func lookup(name string) (kind, error) {
	for _, k := range kinds {
		if k.name == name {
			return k, nil
		}
	}
	return kind{}, fmt.Errorf("backend: unknown backend %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// Default returns the named backend in its paper-default configuration.
func Default(name string) (Backend, error) {
	k, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return k.def, nil
}

// Decode builds the named backend from a strict-JSON options document; nil
// or empty options mean the default configuration.
func Decode(name string, options []byte) (Backend, error) {
	k, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if len(options) == 0 {
		return k.def, nil
	}
	return k.decode(options)
}

// FoldName folds a backend name into an options digest, FNV-1a style — the
// shared convention that keeps equal options on different backends from
// colliding.
func FoldName(h uint64, name string) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}
