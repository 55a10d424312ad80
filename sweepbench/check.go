package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/dse"
)

// reference.json pins, for the default seed, the line hash of every record
// of the two grids, computed by direct dse.EvaluateAt calls (see
// TestReferenceMatchesDirectEvaluation, which regenerates it with -update).
//
//go:embed reference.json
var referenceJSON []byte

// reference maps a grid name to its records' line hashes in enumeration
// order, as 16-hex strings.
type reference map[string][]string

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// recordLine is a record's checkpoint and stream line: the bytes every
// consumer of the sweep path sees.
func recordLine(rec dse.Record) []byte {
	data, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("record %s not marshalable: %v", rec.Digest, err)) // records hold plain values only
	}
	return data
}

func lineHash(line []byte) uint64 {
	h := fnv.New64a()
	h.Write(line)
	return h.Sum64()
}

// expect holds the expected line hash of every enumeration index of a grid.
// For the default seed it comes from reference.json; for any other seed it
// is adopted from the first complete result and then spot-checked against
// direct evaluations.
type expect struct {
	points []dse.Point
	hashes map[int]uint64 // nil until known
}

func newExpect(ref reference, grid string, points []dse.Point, seed uint64) (*expect, error) {
	e := &expect{points: points}
	if seed != defaultSeed {
		return e, nil
	}
	hexes := ref[grid]
	if len(hexes) != len(points) {
		return nil, fmt.Errorf("reference.json: %s has %d records, grid has %d points", grid, len(hexes), len(points))
	}
	e.hashes = make(map[int]uint64, len(hexes))
	for i, h := range hexes {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("reference.json: %s[%d]: %w", grid, i, err)
		}
		e.hashes[i] = v
	}
	return e, nil
}

// indexedLine is one delivered record line and the enumeration index it
// claims.
type indexedLine struct {
	index int
	line  []byte
}

func recordLines(recs []dse.Record) []indexedLine {
	out := make([]indexedLine, len(recs))
	for i, r := range recs {
		out[i] = indexedLine{index: r.Index, line: recordLine(r)}
	}
	return out
}

// adopt makes a delivery the expectation when there is none yet (a
// non-default seed's first result, spot-checked later).
func (e *expect) adopt(got []indexedLine) {
	if e.hashes != nil {
		return
	}
	e.hashes = make(map[int]uint64, len(got))
	for _, g := range got {
		e.hashes[g.index] = lineHash(g.line)
	}
}

// tally counts the failed records of one delivery of the indices in want
// (every index of the grid when want is nil): each expected record that is
// missing or whose bytes differ, and each delivered record that was not
// asked for or arrived twice. It only reads the expectation, so concurrent
// deliveries may be tallied at once.
func (e *expect) tally(got []indexedLine, want []int) int {
	if want == nil {
		want = make([]int, len(e.points))
		for i := range want {
			want[i] = i
		}
	}
	asked := make(map[int]bool, len(want))
	for _, i := range want {
		asked[i] = true
	}
	failed := 0
	seen := make(map[int]bool, len(got))
	for _, g := range got {
		if !asked[g.index] || seen[g.index] {
			failed++
			continue
		}
		seen[g.index] = true
		if h, ok := e.hashes[g.index]; !ok || h != lineHash(g.line) {
			failed++
		}
	}
	for _, i := range want {
		if !seen[i] {
			failed++
		}
	}
	return failed
}

// spotCheck re-evaluates a seeded sample of k points directly through
// dse.EvaluateAt and counts those whose line differs from the expectation
// (or has none). It returns the number checked and the number failed.
func (e *expect) spotCheck(seed, traceSeed uint64, k int) (checked, failed int) {
	rng := seededRNG(seed, streamSpotCheck)
	for _, i := range rng.Perm(len(e.points))[:min(k, len(e.points))] {
		rec := dse.EvaluateAt(e.points[i], traceSeed, 0)
		rec.Index = i
		if want, ok := e.hashes[i]; !ok || want != lineHash(recordLine(rec)) {
			failed++
		}
		checked++
	}
	return checked, failed
}
