package dse

import (
	"fmt"

	"repro/internal/canon"
)

// This file is the merge/dedup surface the fleet coordinator builds on next
// to CheckpointWriter: a strict single-line record parser, and a
// seed-scoped digest deduper that absorbs the overlap re-leased shards
// inevitably re-deliver.

// ParseRecordLine decodes one checkpoint-format line into a validated
// Record. It applies exactly the per-line discipline checkpoint loading
// uses — strict JSON (unknown fields reject), self-consistency check,
// canonical bishop spelling — so a stream of lines fed through it recovers
// the same records a checkpoint load of those lines would.
func ParseRecordLine(line []byte) (Record, bool) {
	if len(line) == 0 {
		return Record{}, false
	}
	var r Record
	if err := canon.DecodeStrict(line, &r); err != nil {
		return Record{}, false
	}
	if !r.valid() {
		return Record{}, false
	}
	return r, true
}

// Dedup is a seed- and fidelity-scoped record set keyed by point digest.
// Add is the merge primitive for streams that re-deliver records — re-leased
// shards, replayed worker logs, resumed checkpoints — it accepts each digest
// once and drops records from other trace seeds or fidelities (either
// describes a different experiment, same discipline as checkpoint adoption).
type Dedup struct {
	seed     uint64
	fidelity int
	recs     map[string]Record
}

// NewDedup returns a deduper admitting full-fidelity records with the given
// trace seed.
func NewDedup(seed uint64) *Dedup { return NewDedupAt(seed, 0) }

// NewDedupAt returns a deduper admitting records with the given trace seed
// and fidelity tag (0 or 1 = full fidelity).
func NewDedupAt(seed uint64, fidelity int) *Dedup {
	if fidelity <= 1 {
		fidelity = 0
	}
	return &Dedup{seed: seed, fidelity: fidelity, recs: map[string]Record{}}
}

// Add reports whether rec is fresh — right seed and fidelity, digest not
// seen before — and remembers it when it is.
func (d *Dedup) Add(rec Record) bool {
	if rec.Seed != d.seed || rec.Fidelity != d.fidelity {
		return false
	}
	if _, ok := d.recs[rec.Digest]; ok {
		return false
	}
	d.recs[rec.Digest] = rec
	return true
}

// Has reports whether the digest has been admitted.
func (d *Dedup) Has(digest string) bool {
	_, ok := d.recs[digest]
	return ok
}

// Len counts the admitted records.
func (d *Dedup) Len() int { return len(d.recs) }

// Ordered assembles the admitted records covering the given point
// enumeration, in enumeration order with indices rebound — the same merged
// view Sweep and Merge produce. Points without a record are skipped.
func (d *Dedup) Ordered(points []Point) []Record {
	var out []Record
	for i, p := range points {
		if rec, ok := d.recs[digestKey(p)]; ok {
			rec.Index = i
			out = append(out, rec)
		}
	}
	return out
}

// DigestKey renders a point digest the way checkpoints and record lines
// store it (%016x) — the key Dedup and the result cache speak.
func DigestKey(p Point) string { return digestKey(p) }

// ShardDigests groups the unique point digests of each shard of an n-way
// partition, by shard index — the coordinator's work-unit inventory. A point
// set sampled with duplicates contributes each digest once, to the shard of
// its first occurrence (matching Sweep's queued-digest skip).
func ShardDigests(points []Point, shards int) ([][]string, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("dse: non-positive shard count %d", shards)
	}
	out := make([][]string, shards)
	seen := map[string]bool{}
	for i, p := range points {
		key := digestKey(p)
		if seen[key] {
			continue
		}
		seen[key] = true
		s := i % shards
		out[s] = append(out[s], key)
	}
	return out, nil
}
