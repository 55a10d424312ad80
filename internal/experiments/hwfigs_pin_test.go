package experiments

// Golden conformance pins for the hardware-comparison tables — Fig. 6,
// Fig. 11 (Model 4), Fig. 12, Fig. 13, and the §6.2 summary — at seed 1.
// The cells were captured from the pre-backend-refactor implementation
// (hand-written gpu.Simulate/ptb.Simulate/accel.Simulate calls in the PR 4
// tree); routing these figures through the backend table and the DSE
// evaluation pipeline must reproduce every cell exactly, the same treatment
// Fig. 15/16 got when they moved onto the sweep engine in PR 3.
//
// Re-pin with PRINT_GOLDEN=1 only after an intentional model change.

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

var goldenFig6 = [][]string{
	{"w/o BSA (whole)", "6.2%", "10.8%"},
	{"w/o BSA (stratified down/dense)", "9.4%", "16.4%"},
	{"w/o BSA (stratified up/sparse)", "1.5%", "2.6%"},
	{"with BSA (whole)", "2.4%", "4.6%"},
	{"with BSA (stratified down/dense)", "5.4%", "10.3%"},
	{"with BSA (stratified up/sparse)", "0.0%", "0.0%"},
}

var goldenFig11 = [][]string{
	{"1", "P1", "4.01", "1.00", "3.25", "1.00"},
	{"1", "ATN", "2.42", "1.20", "2.13", "0.99"},
	{"1", "P2", "1.26", "0.36", "1.02", "0.34"},
	{"1", "MLP", "10.32", "2.55", "8.21", "2.33"},
	{"2", "P1", "3.94", "1.01", "3.20", "1.00"},
	{"2", "ATN", "2.28", "1.20", "2.02", "0.99"},
	{"2", "P2", "1.41", "0.38", "1.14", "0.36"},
	{"2", "MLP", "9.92", "2.60", "7.91", "2.35"},
}

var goldenFig12 = [][]string{
	{"Model 1", "292.86", "74.66x", "180.19x", "258.51x", "277.05x"},
	{"Model 2", "234.82", "67.16x", "200.52x", "262.74x", "272.92x"},
	{"Model 3", "105.69", "23.17x", "146.60x", "148.84x", "255.04x"},
	{"Model 4", "42.73", "67.74x", "233.88x", "247.08x", "322.29x"},
	{"Model 5", "984.31", "54.62x", "180.97x", "198.95x", "267.09x"},
}

var goldenFig13 = [][]string{
	{"Model 1", "2928.61", "1130.46x", "2759.02x", "4269.10x", "4586.16x"},
	{"Model 2", "2348.17", "1012.45x", "2856.04x", "4050.41x", "4200.48x"},
	{"Model 3", "1056.94", "369.46x", "2025.19x", "2180.68x", "3437.38x"},
	{"Model 4", "427.26", "1027.62x", "3173.04x", "3472.49x", "4416.36x"},
	{"Model 5", "9843.07", "859.20x", "2905.50x", "3282.44x", "4376.35x"},
}

var goldenSummary = [][]string{
	{"Bishop(+BSA+ECP) vs PTB", "5.69x", "5.38x"},
	{"Bishop(+BSA+ECP) vs edge GPU", "278.88x", "-"},
}

// pinTable asserts every cell of tbl against the golden capture; under
// PRINT_GOLDEN it prints the current cells as a pasteable Go literal
// instead.
func pinTable(t *testing.T, tbl *Table, want [][]string) {
	t.Helper()
	if os.Getenv("PRINT_GOLDEN") != "" {
		lit := fmt.Sprintf("var golden%s%s = [][]string{\n",
			strings.ToUpper(tbl.ID[:1]), tbl.ID[1:])
		for _, row := range tbl.Rows {
			lit += fmt.Sprintf("\t{%q", row[0])
			for _, c := range row[1:] {
				lit += fmt.Sprintf(", %q", c)
			}
			lit += "},\n"
		}
		t.Log(lit + "}")
		return
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("%s: %d rows want %d", tbl.ID, len(tbl.Rows), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(tbl.Rows[i], want[i]) {
			t.Errorf("%s row %d:\n got %q\nwant %q", tbl.ID, i, tbl.Rows[i], want[i])
		}
	}
}

func TestGoldenFig6(t *testing.T)  { t.Parallel(); pinTable(t, Fig6(1), goldenFig6) }
func TestGoldenFig11(t *testing.T) { t.Parallel(); pinTable(t, Fig11(4, 1), goldenFig11) }
func TestGoldenFig12(t *testing.T) { t.Parallel(); pinTable(t, Fig12(1), goldenFig12) }
func TestGoldenFig13(t *testing.T) { t.Parallel(); pinTable(t, Fig13(1), goldenFig13) }
func TestGoldenSummary(t *testing.T) {
	t.Parallel()
	pinTable(t, Summary(1), goldenSummary)
}
