package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span that
// made the call, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory; they are written out
// once the run ends. A span's id is its index.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id. A nil
// tracer records nothing, so the same replay runs traced and untraced.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// layerStats summarizes every closed span of one name.
type layerStats struct {
	durs  []float64 // each span's duration, ns
	total time.Duration
	self  time.Duration // total minus the time child spans cover
}

func (s layerStats) pct(q float64) time.Duration { return time.Duration(quantile(s.durs, q)) }

// summarize groups the spans by name. A span's self time is its duration
// minus the union of its children's intervals (children of one parent may
// run in parallel).
func (t *tracer) summarize() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		st.durs = append(st.durs, float64(d))
		st.total += d
		st.self += d - covered(t.spans, children[i])
	}
	return out
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(ids))
	for _, id := range ids {
		if s := spans[id]; s.End >= 0 {
			iv = append(iv, [2]time.Duration{s.Start, s.End})
		}
	}
	slices.SortFunc(iv, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
	var total, hi time.Duration
	hi = -1
	for _, v := range iv {
		if v[0] > hi {
			total += v[1] - v[0]
			hi = v[1]
		} else if v[1] > hi {
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}

// writeSpans dumps the host metadata and every span as one JSON document.
func writeSpans(path string, host hostInfo, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
