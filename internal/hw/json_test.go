package hw

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
)

func sampleResult(k float64) Result {
	return Result{
		Cycles: int64(1000 * k), EPE: 1.25 * k, EGLB: 0.5 * k,
		EDRAM: 1e9 * k, EStatic: 1.0 / (3 * k), DRAMBytes: int64(77 * k),
		GLBBytes: int64(13 * k), OpsAcc: int64(5 * k), OpsMul: 0, OpsAnd: int64(k),
	}
}

func sampleReport() *Report {
	rep := &Report{Name: "Bishop", Tech: Default28nm()}
	rep.Layers = []LayerReport{
		{Block: 0, Group: "P1", Name: "blk0.Wq", Core: "dense+sparse",
			Result: sampleResult(1), Dense: sampleResult(0.5), Sparse: sampleResult(0.25)},
		{Block: 0, Group: "ATN", Name: "blk0.attn", Core: "attention",
			Result: sampleResult(3)},
	}
	rep.Finalize()
	return rep
}

func TestResultJSONRoundTrip(t *testing.T) {
	// 1/(3k) and the DRAM-background charge are not exactly representable;
	// the codec must round-trip them bit-exactly anyway.
	for _, k := range []float64{1, 3, 7.77, 1e-9, 1e12} {
		in := sampleResult(k)
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out Result
		if err := canon.DecodeStrict(data, &out); err != nil {
			t.Fatal(err)
		}
		if in != out {
			t.Fatalf("round trip drifted:\n in %+v\nout %+v", in, out)
		}
		if math.Float64bits(in.EStatic) != math.Float64bits(out.EStatic) {
			t.Fatal("EStatic bits drifted")
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	in := sampleReport()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out := &Report{}
	if err := canon.DecodeStrict(data, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip drifted:\n in %+v\nout %+v", in, out)
	}
	// Derived metrics recompute identically from the decoded report.
	if in.LatencyMS() != out.LatencyMS() || in.EnergyMJ() != out.EnergyMJ() || in.EDP() != out.EDP() {
		t.Fatal("derived metrics drifted")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"Cycles": 1, "Bogus": 2}`,
		`{"Cycles": 1} {"Cycles": 2}`, // trailing value
	}
	for _, c := range cases {
		if err := canon.DecodeStrict([]byte(c), &Result{}); err == nil {
			t.Errorf("decode Result %q must fail", c)
		}
	}
	// Unknown fields are rejected even nested inside layers.
	bad := `{"Name":"x","Layers":[{"Result":{"Cyclez":1}}]}`
	if err := canon.DecodeStrict([]byte(bad), &Report{}); err == nil {
		t.Error("decode Report must reject unknown nested field")
	}
}

// TestDecodeRejectsNonFinite: strict decoding refuses values that would
// materialize as non-finite floats (JSON itself cannot spell NaN/Inf), and
// the explicit guard on the Tech constants names the field.
func TestDecodeRejectsNonFinite(t *testing.T) {
	if err := canon.DecodeStrict([]byte(`{"Cycles":1,"EPE":1e999}`), &Result{}); err == nil {
		t.Fatal("out-of-range literal must not decode")
	}
	tech := Default28nm()
	tech.PDRAM = math.NaN()
	if err := tech.CheckFinite("Tech"); err == nil || !strings.Contains(err.Error(), "Tech.PDRAM is NaN") {
		t.Fatalf("CheckFinite: %v", err)
	}
	if err := Default28nm().CheckFinite("Tech"); err != nil {
		t.Fatalf("finite CheckFinite: %v", err)
	}
}

// TestTechValidate pins the rule every options type applies to its Tech:
// a zero clock means the default, anything else must run the cost models.
func TestTechValidate(t *testing.T) {
	if err := Default28nm().Validate("Tech"); err != nil {
		t.Fatalf("default tech: %v", err)
	}
	if err := (Tech{}).Validate("Tech"); err != nil {
		t.Fatalf("zero tech must mean the default: %v", err)
	}
	neg := Default28nm()
	neg.EReg = -1
	slow := Default28nm()
	slow.ClockHz = 0.5
	for _, tc := range []struct {
		tech Tech
		want string
	}{
		{Tech{ClockHz: 5e8}, "Tech.DRAMBandwidth is 0"},
		{Tech{ClockHz: -1}, "Tech.ClockHz is negative"},
		{Tech{ClockHz: 5e8, DRAMBandwidth: 1e300}, "Tech.DRAMBandwidth is 1e+300"},
		{Tech{ClockHz: math.Inf(1)}, "Tech.ClockHz is +Inf"},
		{neg, "Tech.EReg is negative (-1)"},
		{slow, "Tech.ClockHz is 0.5, below 1 Hz"},
	} {
		if err := tc.tech.Validate("Tech"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want %q", tc.tech, err, tc.want)
		}
	}
}

// TestArrayValidate pins the ArrayConfig rule: every count positive, except
// the sparse and attention cores of a homogeneous array, and a zero
// DensePEs meaning the default.
func TestArrayValidate(t *testing.T) {
	for _, ok := range []struct {
		arr  ArrayConfig
		homo bool
	}{{BishopArray(), false}, {PTBArray(), true}, {ArrayConfig{}, false}, {ArrayConfig{DenseCols: -1}, true}} {
		if err := ok.arr.Validate("Array", ok.homo); err != nil {
			t.Errorf("Validate(%+v, %v): %v", ok.arr, ok.homo, err)
		}
	}
	huge := BishopArray()
	huge.SparseUnits = 1 << 40
	for _, tc := range []struct {
		arr  ArrayConfig
		homo bool
		want string
	}{
		{ArrayConfig{DensePEs: -4}, false, "Array.DensePEs is -4"},
		{ArrayConfig{DensePEs: 512}, true, "Array.DenseCols is 0"},
		{PTBArray(), false, "Array.SparseUnits is 0"},
		{huge, false, "Array.SparseUnits is 1099511627776"},
	} {
		if err := tc.arr.Validate("Array", tc.homo); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v, %v) = %v, want %q", tc.arr, tc.homo, err, tc.want)
		}
	}
}
