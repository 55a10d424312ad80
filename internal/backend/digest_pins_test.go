package backend

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/bundle"
	"repro/internal/hw"
)

// TestOptionsDigestPins pins the absolute options digest of every kind, in
// its default and one non-default configuration. The result cache and the
// daemon's job ids key on these values, so any change to the options
// encoding or the digest function must show up here first.
func TestOptionsDigestPins(t *testing.T) {
	arr := hw.BishopArray()
	arr.SparseUnits = 64
	for _, tc := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"bishop default", accel.DefaultOptions().Digest(), 0x37531b858f185297},
		{"bishop ecp 2x2", accel.Options{Array: arr, Shape: bundle.Shape{BSt: 2, BSn: 2}, Stratify: true, ThetaS: 4,
			ECP: &bundle.ECPConfig{Shape: bundle.Shape{BSt: 2, BSn: 2}, ThetaQ: 6, ThetaK: 6}}.Digest(), 0x1754ac7a51678bc8},
		{"ptb default", ptb.DefaultOptions().Digest(), 0x89f125ad26d38253},
		{"ptb tw4 lanes32", ptb.Options{TimeWindow: 4, OutLanes: 32}.Digest(), 0x670817eea4b1145d},
		{"gpu default", gpu.DefaultOptions().Digest(), 0x9feceaef67333ffe},
		{"gpu util0.05", gpu.Options{Utilization: 0.05, PowerW: 5}.Digest(), 0x9e6e4567aff92bfe},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, tc.got, tc.want)
		}
	}
}
