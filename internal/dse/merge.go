package dse

import (
	"slices"

	"repro/internal/canon"
)

// This file is the merge surface Sweep and the fleet coordinator share next
// to CheckpointWriter: a strict single-line record parser, and a seed- and
// fidelity-scoped digest deduper. Sweep adopts checkpoint, preloaded and
// fresh records through it; the coordinator absorbs the overlap re-leased
// shards re-deliver. Which run evaluates which point is Config.Slots' rule
// alone.

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
// enumeration, in enumeration order with indices rebound — the merged view
// an unsharded, unrestricted Sweep of the points returns. Points without a
// record are skipped.
func (d *Dedup) Ordered(points []Point) []Record {
	slots, _ := Config{}.Slots(points) // the zero Config is one shard: no error
	return d.ordered(slices.Collect(slots))
}

// ordered returns the admitted record of every slot that has one, in slot
// order, each under its slot's index.
func (d *Dedup) ordered(slots []Slot) []Record {
	var out []Record
	for _, s := range slots {
		if rec, ok := d.recs[s.Key]; ok {
			rec.Index = s.Index
			out = append(out, rec)
		}
	}
	return out
}

// DigestKey renders a point digest the way checkpoints and record lines
// store it (%016x) — the key Dedup and the result cache speak.
func DigestKey(p Point) string { return digestKey(p) }
