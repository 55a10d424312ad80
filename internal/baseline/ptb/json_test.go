package ptb

import (
	"strings"
	"testing"

	"repro/internal/canon"
)

func TestOptionsCodecRoundTrip(t *testing.T) {
	o := DefaultOptions()
	o.TimeWindow = 7
	data, err := canon.Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := canon.Decode[Options](data)
	if err != nil || back != o {
		t.Fatalf("round trip: %v, %+v", err, back)
	}
	if _, err := canon.Decode[Options]([]byte(`{"TimeWindow":10,"Typo":1}`)); err == nil {
		t.Fatal("unknown field must reject")
	}
	if _, err := canon.Decode[Options]([]byte(`{"TimeWindow":10} trailing`)); err == nil {
		t.Fatal("trailing data must reject")
	}
	if _, err := canon.Decode[Options]([]byte(`{"OutLanes":-1}`)); err == nil ||
		!strings.Contains(err.Error(), "Options.OutLanes is negative") {
		t.Fatalf("negative lanes must reject by name: %v", err)
	}
}

func TestOptionsDigestStable(t *testing.T) {
	// Default-spelling stability: the zero options normalize to the §6.1
	// defaults, so both fingerprint identically.
	if (Options{}).Digest() != DefaultOptions().Digest() {
		t.Fatal("zero options must digest as the defaults")
	}
	// Field-order stability: a reordered document decodes to the same digest.
	canonical, err := canon.Encode(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := canon.Decode[Options]([]byte(`{"OutLanes":64,"TimeWindow":10}`))
	if err != nil {
		t.Fatal(err)
	}
	if reordered.Digest() != DefaultOptions().Digest() {
		t.Fatalf("digest must be stable across field order (canonical %s)", canonical)
	}
	changed := DefaultOptions()
	changed.TimeWindow = 5
	if changed.Digest() == DefaultOptions().Digest() {
		t.Fatal("an effective knob change must change the digest")
	}
}
