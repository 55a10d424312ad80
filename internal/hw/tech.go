// Package hw provides the shared hardware-modeling substrate for the Bishop
// accelerator simulator and its baselines: 28 nm technology constants
// (per-operation energies, DRAM parameters), a cacti-lite analytic SRAM
// energy model standing in for CACTI 7.0, the latency/energy accounting
// types, the paper's §6.6 area/power breakdown, and workload-statistics
// extraction from traced spike tensors.
package hw

import (
	"fmt"
	"math"
)

// Tech holds the technology and system constants of the evaluation setup
// (§6.1): a commercial 28 nm process at 500 MHz with DDR4-2400 DRAM.
// Per-operation energies are standard 28 nm figures (Horowitz-style tables);
// the DRAM numbers are the paper's.
type Tech struct {
	ClockHz float64 // core clock (500 MHz)

	// Dynamic energy per operation, in pJ.
	EAcc32 float64 // 32-bit accumulate (partial-sum add)
	EAcc8  float64 // 8-bit add / comparator
	EMul8  float64 // 8×8-bit multiply (baseline PEs only; Bishop has none)
	EAnd   float64 // AND gate evaluation (AAC attention ops)
	EMux   float64 // multiplexer select (SAC ops)
	EReg   float64 // local register access

	// DRAM (DDR4-2400, §6.1).
	DRAMBandwidth float64 // bytes/s (76.8 GB/s)
	EDRAMPerByte  float64 // pJ/byte
	PDRAM         float64 // W (323.9 mW)

	// Static (leakage + clock-tree + non-datapath switching) power as a
	// fraction of the synthesized peak core power, charged for the duration
	// a module is occupied. Together with the DRAM background power this
	// reproduces the paper's power×time energy methodology (§6.1), with the
	// per-op dynamic energies as activity-dependent increments.
	StaticFrac float64
}

// Default28nm returns the technology model used by every experiment.
func Default28nm() Tech {
	return Tech{
		ClockHz:       500e6,
		EAcc32:        0.10,
		EAcc8:         0.03,
		EMul8:         0.20,
		EAnd:          0.005,
		EMux:          0.01,
		EReg:          0.06,
		DRAMBandwidth: 76.8e9,
		EDRAMPerByte:  20, // incremental access energy; the 323.9 mW DRAM
		// background power is charged over the occupied period separately
		PDRAM:      0.3239,
		StaticFrac: 0.6,
	}
}

// CyclePeriod returns the clock period in seconds.
func (t Tech) CyclePeriod() float64 { return 1 / t.ClockHz }

// DRAMBytesPerCycle returns the DRAM bandwidth expressed per core cycle.
func (t Tech) DRAMBytesPerCycle() float64 { return t.DRAMBandwidth / t.ClockHz }

// SRAMEnergyPerByte is the cacti-lite stand-in for CACTI 7.0: dynamic read/
// write energy per byte for an SRAM of the given capacity. The log-capacity
// scaling reproduces CACTI's relative magnitudes in the 4 KB–1 MB range at
// 28 nm (≈0.3 pJ/B at 12 KB, ≈0.45 pJ/B at 144 KB).
func SRAMEnergyPerByte(capacityKB float64) float64 {
	if capacityKB < 1 {
		capacityKB = 1
	}
	return 0.18 * (1 + 0.17*math.Log2(capacityKB))
}

// Bishop's buffer provisioning (§6.1).
const (
	WeightGLBKB = 144 // weight global buffer, 512-bit ports
	SpikeGLBKB  = 12  // each of the ping-pong spike TTB GLBs
	WeightBytes = 1   // 8-bit weights
	PsumBytes   = 2   // 16-bit partial sums
	ScoreBytes  = 2   // attention scores: 6–10 bits, stored as 16-bit
)

// ArrayConfig describes the compute provisioning of an accelerator (§6.1).
type ArrayConfig struct {
	DensePEs     int // TTB dense core PEs (32 output features × 16 bundles)
	DenseCols    int // output features processed in parallel
	DenseRows    int // TT-bundles processed in parallel
	SparseUnits  int // parallel TTB units in the SIGMA-like sparse core
	AttnPEs      int // attention core PEs
	AttnCols     int
	AttnRows     int
	SpikeLanes   int // spike generator neurons in parallel
	LanesPerUnit int // spikes a TTB unit can process per cycle
}

// BishopArray is the provisioning from §6.1.
func BishopArray() ArrayConfig {
	return ArrayConfig{
		DensePEs: 512, DenseCols: 32, DenseRows: 16,
		SparseUnits: 128,
		AttnPEs:     512, AttnCols: 32, AttnRows: 16,
		SpikeLanes: 512, LanesPerUnit: 10,
	}
}

// PTBArray gives the PTB baseline the same number of PEs with the same
// per-PE register/compute resources, per the fair-comparison setup of §6.1
// (nearly identical synthesized area and power). PTB is homogeneous: one
// systolic array handles projections, MLPs, and attention.
func PTBArray() ArrayConfig {
	return ArrayConfig{
		DensePEs: 1024, DenseCols: 32, DenseRows: 32,
		SparseUnits: 0,
		AttnPEs:     0,
		SpikeLanes:  512, LanesPerUnit: 10,
	}
}

// NonFinite classifies v for error messages: "NaN", "+Inf", "-Inf", or ""
// when v is finite.
func NonFinite(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return ""
}

// namedFloat is one constant of a Tech, for error messages.
type namedFloat struct {
	name string
	v    float64
}

// fields lists the constants of t by name, in declaration order.
func (t Tech) fields() []namedFloat {
	return []namedFloat{
		{"ClockHz", t.ClockHz}, {"EAcc32", t.EAcc32}, {"EAcc8", t.EAcc8},
		{"EMul8", t.EMul8}, {"EAnd", t.EAnd}, {"EMux", t.EMux}, {"EReg", t.EReg},
		{"DRAMBandwidth", t.DRAMBandwidth}, {"EDRAMPerByte", t.EDRAMPerByte},
		{"PDRAM", t.PDRAM}, {"StaticFrac", t.StaticFrac},
	}
}

// CheckFinite reports the first non-finite field of t by name, prefixed
// with path.
func (t Tech) CheckFinite(path string) error {
	for _, f := range t.fields() {
		if s := NonFinite(f.v); s != "" {
			return fmt.Errorf("%s.%s is %s", path, f.name, s)
		}
	}
	return nil
}

// maxBytesPerCycle bounds DRAMBandwidth/ClockHz so the cycle models'
// integer conversion of it cannot overflow.
const maxBytesPerCycle = 1 << 40

// Validate reports the first field of t the cost models cannot run, by name
// and prefixed with path: a non-finite or negative constant, a clock below
// 1 Hz, or a DRAM bandwidth outside 1–2^40 bytes per cycle. A zero ClockHz
// is legal whatever the other fields hold: every options type replaces such
// a Tech with Default28nm.
func (t Tech) Validate(path string) error {
	if err := t.CheckFinite(path); err != nil {
		return err
	}
	if t.ClockHz == 0 {
		return nil
	}
	for _, f := range t.fields() {
		if f.v < 0 {
			return fmt.Errorf("%s.%s is negative (%g)", path, f.name, f.v)
		}
	}
	if t.ClockHz < 1 {
		return fmt.Errorf("%s.ClockHz is %g, below 1 Hz", path, t.ClockHz)
	}
	if bpc := t.DRAMBandwidth / t.ClockHz; bpc < 1 || bpc > maxBytesPerCycle {
		return fmt.Errorf("%s.DRAMBandwidth is %g, outside 1–2^40 bytes per cycle at ClockHz %g",
			path, t.DRAMBandwidth, t.ClockHz)
	}
	return nil
}

// maxUnits bounds every ArrayConfig count, so the products the core models
// form from them stay far inside int64.
const maxUnits = 1 << 24

// Validate reports the first count of a the core models cannot run, by
// name and prefixed with path: a count outside 1–2^24. A homogeneous array
// (PTB's single systolic array) has no sparse or attention core, so its
// SparseUnits, AttnPEs, AttnCols and AttnRows may also be zero. A zero
// DensePEs is legal whatever the other fields hold: every options type
// replaces such an array with its default.
func (a ArrayConfig) Validate(path string, homogeneous bool) error {
	if a.DensePEs == 0 {
		return nil
	}
	for _, f := range [...]struct {
		name     string
		v        int
		optional bool
	}{
		{"DensePEs", a.DensePEs, false}, {"DenseCols", a.DenseCols, false},
		{"DenseRows", a.DenseRows, false}, {"SparseUnits", a.SparseUnits, homogeneous},
		{"AttnPEs", a.AttnPEs, homogeneous}, {"AttnCols", a.AttnCols, homogeneous},
		{"AttnRows", a.AttnRows, homogeneous}, {"SpikeLanes", a.SpikeLanes, false},
		{"LanesPerUnit", a.LanesPerUnit, false},
	} {
		lo := 1
		if f.optional {
			lo = 0
		}
		if f.v < lo || f.v > maxUnits {
			return fmt.Errorf("%s.%s is %d, outside %d–2^24", path, f.name, f.v, lo)
		}
	}
	return nil
}
