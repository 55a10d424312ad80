package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"sync"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// Record is the persisted outcome of evaluating one point: the coordinate
// itself (so a checkpoint is self-describing), the headline metrics, and the
// per-group totals the sensitivity figures query. JSON numbers round-trip
// bit-exactly (encoding/json emits shortest-round-trip floats), which is
// what makes resumed and sharded sweeps merge bit-identically.
//
// The backend coordinate is carried as a tag plus the backend's own
// canonical options document. The canonical spelling of the bishop backend
// is the *absent* tag (with the configuration in Opt), which keeps every
// bishop record byte-identical to the pre-backend format: PR 3/4-era
// checkpoints decode as bishop, and a resumed legacy sweep appends lines
// indistinguishable from the legacy writer's.
type Record struct {
	Index   int    `json:"index"`             // position in the enumerated point set
	Digest  string `json:"digest"`            // %016x of Point.Digest
	Backend string `json:"backend,omitempty"` // backend tag; "" = bishop
	Model   int    `json:"model"`
	BSA     bool   `json:"bsa"`
	Seed    uint64 `json:"seed"`

	// Fidelity is the trace-scale divisor the evaluation ran at (see
	// workload.TraceOptions.Scale). The canonical spelling of full fidelity
	// is the *absent* tag, so full-fidelity records — every record that
	// existed before the multi-fidelity axis — keep their historical bytes,
	// and legacy checkpoints decode and resume bit-identically.
	Fidelity int `json:"fidelity,omitempty"`

	// Opt is the Bishop configuration of a bishop record; nil otherwise.
	Opt *accel.Options `json:"opt,omitempty"`
	// BackendOpt is the canonical options document of a non-bishop record
	// (the bytes its Backend.EncodeOptions produced); nil for bishop.
	BackendOpt json.RawMessage `json:"backend_opt,omitempty"`

	LatencyMS float64 `json:"latency_ms"`
	EnergyMJ  float64 `json:"energy_mj"`
	EDP       float64 `json:"edp"` // pJ·s

	Total      hw.Result            `json:"total"`
	GroupOrder []string             `json:"group_order"`
	Groups     map[string]hw.Result `json:"groups"`
}

// BackendName returns the table name of the record's backend ("bishop"
// for the canonical empty tag).
func (r Record) BackendName() string {
	if r.Backend == "" {
		return backend.BishopName
	}
	return r.Backend
}

// Point reconstructs the design-space coordinate of the record. It panics
// on a non-bishop record whose options document does not decode — records
// built by Evaluate or loaded through a checkpoint are always valid, so
// this is unreachable short of hand-constructed Records.
func (r Record) Point() Point {
	p := Point{Model: r.Model, BSA: r.BSA}
	if r.Backend == "" || r.Backend == backend.BishopName {
		if r.Opt != nil {
			p.Opt = *r.Opt
		}
		return p
	}
	b, err := backend.Decode(r.Backend, r.BackendOpt)
	if err != nil {
		panic(fmt.Sprintf("dse: record %s: %v", r.Digest, err))
	}
	p.Backend = b
	return p
}

// valid reports whether a decoded checkpoint record is self-consistent —
// bishop records carry valid Options, non-bishop records carry a decodable
// options document — canonicalizing an explicitly spelled bishop tag (and
// an explicit fidelity 1, which means full fidelity) along the way. Invalid
// lines are skipped on load and simply re-evaluate.
func (r *Record) valid() bool {
	if r.Fidelity < 0 {
		return false
	}
	if r.Fidelity == 1 {
		r.Fidelity = 0
	}
	switch r.Backend {
	case "", backend.BishopName:
		if r.Opt == nil || r.Opt.Validate() != nil {
			return false
		}
		r.Backend, r.BackendOpt = "", nil
		return true
	default:
		_, err := backend.Decode(r.Backend, r.BackendOpt)
		return err == nil
	}
}

// Valid reports whether a decoded record is self-consistent (bishop records
// carry valid Options, non-bishop records a decodable options document),
// canonicalizing an explicit bishop tag in place. The serving layer's result
// cache uses it to reject corrupt or stale cache entries.
func (r *Record) Valid() bool { return r.valid() }

// NonGroupTotal sums the group totals for every group except the named one,
// in group order — e.g. the projection/MLP share when excluding "ATN".
func (r Record) NonGroupTotal(exclude string) hw.Result {
	var t hw.Result
	for _, g := range r.GroupOrder {
		if g != exclude {
			t.Add(r.Groups[g])
		}
	}
	return t
}

// digestKey renders a point digest the way checkpoints store it.
func digestKey(p Point) string { return fmt.Sprintf("%016x", p.Digest()) }

// Evaluate simulates one point at the given trace seed and returns its
// record. The synthetic trace comes from the process-wide workload cache
// keyed by model/scenario/seed only — the backend and every hardware knob
// are simulation-side, the trace itself is always generated at the default
// bundle shape, matching the paper's §6.5 methodology — so sweeping hardware
// axes, and evaluating the same workload on several backends, reuses one
// trace per (model, BSA, seed) triple.
func Evaluate(p Point, seed uint64) Record { return EvaluateAt(p, seed, 0) }

// EvaluateAt simulates one point against the fidelity's reduced-volume
// proxy trace (fidelity k > 1 divides the trace's spike volume by ~k; 0 and
// 1 both mean the full trace and produce a record byte-identical to
// Evaluate's). Low-fidelity records carry the fidelity tag, so they can
// never be mistaken for — or satisfy a resume of — a full evaluation.
func EvaluateAt(p Point, seed uint64, fidelity int) Record {
	return evaluate(p, seed, fidelity, accel.SimulateSeq)
}

// evaluate is EvaluateAt with the Bishop simulation supplied by the caller:
// a sweep passes its shared statistics, EvaluateAt the standalone
// accel.SimulateSeq. The record is the same either way.
func evaluate(p Point, seed uint64, fidelity int, simulate func(*transformer.Trace, accel.Options) *hw.Report) Record {
	if fidelity <= 1 {
		fidelity = 0
	}
	p = p.canon()
	cfg := transformer.ModelZoo()[p.Model-1]
	sc := workload.Scenarios()[p.Model]
	tr := workload.CachedTrace(cfg, sc, workload.TraceOptions{BSA: p.BSA, Scale: fidelity}, seed)
	rec := Record{Digest: digestKey(p), Model: p.Model, BSA: p.BSA, Seed: seed, Fidelity: fidelity}
	var rep *hw.Report
	if p.Backend == nil {
		opt := p.Opt
		rec.Opt = &opt
		rep = simulate(tr, opt)
	} else {
		rec.Backend = p.Backend.Name()
		data, err := p.Backend.EncodeOptions()
		if err != nil {
			panic(fmt.Sprintf("dse: %s options not encodable: %v", rec.Backend, err)) // unreachable: Grid/Validate admit only encodable options
		}
		rec.BackendOpt = data
		rep = p.Backend.Simulate(tr)
	}
	order, totals := rep.GroupTotals()
	rec.LatencyMS, rec.EnergyMJ, rec.EDP = rep.LatencyMS(), rep.EnergyMJ(), rep.EDP()
	rec.Total, rec.GroupOrder, rec.Groups = rep.Total, order, totals
	return rec
}

// Config parameterizes one sweep invocation.
type Config struct {
	Seed uint64 // trace seed shared by every point

	// Checkpoint is the JSONL record file. Non-empty makes the sweep
	// resumable: points whose digest already appears in the file are not
	// re-evaluated, and fresh evaluations are appended in enumeration order
	// as they complete. A sweep that started from a non-empty file or
	// adopted Preloaded records publishes the canonical file on success
	// (CheckpointWriter.Publish), so the file holds the bytes a fresh,
	// unsharded run writes, after the lines of other seeds and fidelities.
	Checkpoint string

	// Shard i of Shards partitions the point set deterministically by
	// enumeration index (point i belongs to shard i mod Shards, and a
	// repeated digest to the shard of its first occurrence; see Slots), so n
	// machines given the same spec and -shard 0/n … (n-1)/n evaluate every
	// digest exactly once between them. Zero values mean "the whole space".
	Shard, Shards int

	Jobs int // parallel evaluators (<=0 → GOMAXPROCS)

	// Fidelity is the trace-scale divisor every evaluation runs at (0 or 1 =
	// full fidelity). Checkpoint and Preloaded adoption is fidelity-scoped
	// exactly as it is seed-scoped: a cheap proxy record never satisfies a
	// full-fidelity sweep, and vice versa.
	Fidelity int

	// Select, when non-empty, restricts evaluation to points whose digest
	// (%016x) appears in it — the successive-halving driver's survivor
	// filter. Indices are untouched: a selected point keeps the index it has
	// in the full enumeration, so its records stay byte-identical to an
	// unrestricted sweep's.
	Select []string

	// Preloaded seeds the sweep with records that are already known — the
	// serving layer's digest-addressed result cache. Records carrying the
	// sweep's seed are adopted into the result set without re-evaluation,
	// exactly like checkpoint records, and reach the checkpoint when the
	// finished sweep publishes it.
	Preloaded []Record

	// OnRecord, when non-nil, observes every *fresh* evaluation right after
	// it lands in the checkpoint, with its enumeration index set. Calls are
	// serialized by the sweep's internal lock, so the callback may touch
	// shared state without further synchronization — it is the serving
	// layer's record-streaming and cache-publication hook.
	OnRecord func(Record)
}

func (c *Config) normalize() error {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shard < 0 || c.Shard >= c.Shards {
		return fmt.Errorf("dse: shard %d outside [0,%d)", c.Shard, c.Shards)
	}
	if c.Fidelity <= 1 {
		c.Fidelity = 0
	}
	return nil
}

// ResultSet is the merged outcome of a sweep: every record available for the
// requested point set (freshly evaluated, or recovered from the checkpoint —
// including records another shard contributed to a shared checkpoint file),
// in point-enumeration order.
type ResultSet struct {
	Points  []Point
	Records []Record
	// Evaluated counts the points this Sweep call simulated fresh; the
	// remaining Records were recovered from the checkpoint.
	Evaluated int
}

// Complete reports whether every point of the set has a record.
func (rs *ResultSet) Complete() bool { return len(rs.Records) == len(rs.Points) }

// Slot is one point of a sweep's enumeration that passes its Select
// filter.
type Slot struct {
	Index int    // position in the full enumeration
	Key   string // the point's DigestKey
	// Shard is the shard that evaluates the digest, or -1 when an earlier
	// slot carries the same Key.
	Shard int
}

// Slots is the one statement of which run evaluates which point. Point i
// belongs to shard i mod Shards; a non-empty Select keeps only the listed
// digests; and a digest the enumeration repeats (seeded-random samples
// repeat coordinates) is evaluated once, by the shard of its first
// occurrence in the whole enumeration. Sweep, serve.Run's cache preload and
// the fleet coordinator's per-shard inventory all read it, so n shards
// evaluate every selected digest exactly once between them.
//
// The slots come in enumeration order, each point's digest key computed as
// it is reached, so a caller can act on the first slot (serve.Run streams
// its cache hits) before the last key is computed.
func (c Config) Slots(points []Point) (iter.Seq[Slot], error) {
	if err := c.normalize(); err != nil {
		return nil, err
	}
	var sel map[string]bool
	if len(c.Select) > 0 {
		sel = make(map[string]bool, len(c.Select))
		for _, d := range c.Select {
			sel[d] = true
		}
	}
	return func(yield func(Slot) bool) {
		first := map[string]bool{}
		for i, p := range points {
			key := digestKey(p)
			if sel != nil && !sel[key] {
				continue
			}
			shard := -1
			if !first[key] {
				first[key] = true
				shard = i % c.Shards
			}
			if !yield(Slot{Index: i, Key: key, Shard: shard}) {
				return
			}
		}
	}, nil
}

// Sweep evaluates the points of the configured shard (see Slots) that are
// not already checkpointed or preloaded, appending the records to the
// checkpoint in enumeration order as they land, and returns the merged
// result set. On cancellation the records completed so far are already
// durable in the checkpoint and the error is returned; a later call with
// the same arguments resumes where the sweep stopped. On success a
// checkpoint that is not already canonical is published in the canonical
// order (see Config.Checkpoint).
func Sweep(ctx context.Context, points []Point, cfg Config) (*ResultSet, error) {
	seq, err := cfg.Slots(points) // rejects a shard outside [0, Shards)
	if err != nil {
		return nil, err
	}
	slots := slices.Collect(seq)
	// known holds every record of this sweep's seed and fidelity: a record
	// from another trace seed or fidelity describes a different experiment
	// and never satisfies this sweep's points. Digests key it, so a
	// checkpoint survives re-ordering of the spec; indices are rebound from
	// the current enumeration.
	known := NewDedupAt(cfg.Seed, cfg.Fidelity)
	// canonical holds while the checkpoint is exactly what a fresh run
	// appends: it started empty and nothing was adopted from elsewhere.
	canonical := true
	var ckpt *CheckpointWriter
	if cfg.Checkpoint != "" {
		if ckpt, err = OpenCheckpointWriter(cfg.Checkpoint); err != nil {
			return nil, err
		}
		defer ckpt.Close()
		canonical = !ckpt.loaded
		for _, r := range ckpt.Records() {
			known.Add(r)
		}
	}
	for _, r := range cfg.Preloaded {
		// Malformed injected records are dropped and their points simply
		// re-evaluate.
		if r.valid() && known.Add(r) {
			canonical = false
		}
	}
	var todo []Slot
	for _, s := range slots {
		if s.Shard == cfg.Shard && !known.Has(s.Key) {
			todo = append(todo, s)
		}
	}

	// Records commit in todo order: a finished point waits for every
	// earlier one, so a fresh sweep's checkpoint and record stream come out
	// in enumeration order whatever order the workers finish in. sched
	// starts items in index order and lets every started item finish, so a
	// cancelled sweep still commits everything it evaluated.
	var mu sync.Mutex
	evaluated := 0
	finished, ready, next := make([]Record, len(todo)), make([]bool, len(todo)), 0
	var stats sharedStats // dropped on return
	err = sched.Map(ctx, len(todo), cfg.Jobs, func(k int) error {
		i := todo[k].Index
		rec := stats.evaluate(points[i], cfg.Seed, cfg.Fidelity)
		rec.Index = i
		mu.Lock()
		defer mu.Unlock()
		finished[k], ready[k] = rec, true
		for ; next < len(todo) && ready[next]; next++ {
			rec := finished[next]
			if ckpt != nil {
				if werr := ckpt.Append(rec); werr != nil {
					return werr
				}
			}
			known.Add(rec)
			evaluated++
			if cfg.OnRecord != nil {
				cfg.OnRecord(rec)
			}
		}
		return nil
	})

	// Points without a record belong to another shard or were cancelled.
	rs := &ResultSet{Points: points, Records: known.ordered(slots), Evaluated: evaluated}
	if err == nil && ckpt != nil && !canonical {
		err = ckpt.Publish(rs.Records)
	}
	return rs, err
}

// sharedStats is one sweep's simulation state. The accel statistics of a
// (trace, shape) pair do not depend on θ_s, the split target or the ECP θ,
// so the first point to need a pair prepares it and every other point of the
// sweep walks the same immutable value. Each evaluation borrows an idle
// Simulator, so every sweep worker effectively owns one. Nothing is
// allocated until a Bishop point is evaluated, so sweeps of cached or
// PTB/GPU points pay nothing.
type sharedStats struct {
	mu       sync.Mutex
	prepared map[statsKey]*preparedEntry
	idle     []*accel.Simulator
}

type statsKey struct {
	tr     *transformer.Trace
	shapes accel.Shapes
}

type preparedEntry struct {
	once sync.Once
	p    *accel.Prepared
}

// onPrepare, when non-nil, observes every preparation a sweep makes (a
// test hook).
var onPrepare func(*transformer.Trace, accel.Shapes)

func (s *sharedStats) evaluate(p Point, seed uint64, fidelity int) Record {
	if p.Backend != nil {
		return EvaluateAt(p, seed, fidelity)
	}
	var sim *accel.Simulator
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		sim, s.idle = s.idle[n-1], s.idle[:n-1]
	} else {
		sim = new(accel.Simulator)
	}
	s.mu.Unlock()
	rec := evaluate(p, seed, fidelity, func(tr *transformer.Trace, opt accel.Options) *hw.Report {
		return sim.Simulate(s.prepare(sim, tr, opt), opt)
	})
	s.mu.Lock()
	s.idle = append(s.idle, sim)
	s.mu.Unlock()
	return rec
}

// prepare returns the sweep's statistics for (tr, opt.Shapes()), computing
// them on sim's scratch if this is the pair's first point; concurrent
// askers wait for that one preparation.
func (s *sharedStats) prepare(sim *accel.Simulator, tr *transformer.Trace, opt accel.Options) *accel.Prepared {
	key := statsKey{tr, opt.Shapes()}
	s.mu.Lock()
	if s.prepared == nil {
		s.prepared = map[statsKey]*preparedEntry{}
	}
	e := s.prepared[key]
	if e == nil {
		e = &preparedEntry{}
		s.prepared[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		if onPrepare != nil {
			onPrepare(key.tr, key.shapes)
		}
		e.p = sim.Prepare(tr, opt)
	})
	return e.p
}
