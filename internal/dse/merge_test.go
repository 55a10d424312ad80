package dse

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func mergeTestPoints(t *testing.T) []Point {
	t.Helper()
	sp := Space{Models: []int{4}, ECPThetas: []int{0, 10}}
	pts := sp.Grid()
	if len(pts) < 2 {
		t.Fatalf("test space has %d points", len(pts))
	}
	return pts
}

// TestParseRecordLine pins the strict per-line discipline: a marshaled
// record round-trips, and malformed / unknown-field / inconsistent lines are
// rejected rather than half-read.
func TestParseRecordLine(t *testing.T) {
	pts := mergeTestPoints(t)
	rec := Evaluate(pts[0], 1)
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ParseRecordLine(line)
	if !ok {
		t.Fatal("valid line rejected")
	}
	back, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, line) {
		t.Fatalf("parse∘marshal not identity:\n %s\n %s", back, line)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte(""),
		[]byte("not json"),
		[]byte(`{"index":0`),            // torn tail
		[]byte(`{"index":0,"bogus":1}`), // unknown field
		[]byte(`{"index":0,"digest":"ff","model":4,"bsa":false,"seed":1,"latency_ms":1,"energy_mj":1,"edp":1,"total":{},"group_order":null,"groups":null}`), // bishop record without options
		// bishop options the simulator cannot run
		[]byte(`{"index":0,"digest":"ff","model":4,"bsa":false,"seed":1,"opt":{"Array":{"DensePEs":-4}},"latency_ms":1,"energy_mj":1,"edp":1,"total":{},"group_order":null,"groups":null}`),
	} {
		if _, ok := ParseRecordLine(bad); ok {
			t.Errorf("ParseRecordLine(%q) accepted", bad)
		}
	}
}

// TestCheckpointWriterAppendLine pins that raw-line appends interleave with
// record appends into a file the checkpoint loader fully recovers, torn tail
// included, byte-identical to what Append of the same records writes.
func TestCheckpointWriterAppendLine(t *testing.T) {
	pts := mergeTestPoints(t)
	r0, r1 := Evaluate(pts[0], 1), Evaluate(pts[1], 1)
	r1.Index = 1
	line1, _ := json.Marshal(r1)

	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	w, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(r0); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendLine(line1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ref := filepath.Join(dir, "ref.jsonl")
	wr, err := OpenCheckpointWriter(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Append(r0); err != nil {
		t.Fatal(err)
	}
	if err := wr.Append(r1); err != nil {
		t.Fatal(err)
	}
	wr.Close()
	got, _ := os.ReadFile(path)
	want, _ := os.ReadFile(ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendLine file differs from Append file:\n%s\n%s", got, want)
	}

	// Torn tail: a partial final line is tolerated and does not corrupt the
	// recovered prefix; the writer reopened for append recovers both records.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":2,"dig`)
	f.Close()
	w2, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := len(w2.Records()); got != 2 {
		t.Fatalf("recovered %d records past torn tail, want 2", got)
	}
}

// TestDedup pins seed scoping, digest dedup, and enumeration-ordered merge.
func TestDedup(t *testing.T) {
	pts := mergeTestPoints(t)
	r0, r1 := Evaluate(pts[0], 1), Evaluate(pts[1], 1)
	d := NewDedupAt(1, 0)
	if !d.Add(r0) {
		t.Fatal("fresh record rejected")
	}
	if d.Add(r0) {
		t.Fatal("duplicate digest admitted")
	}
	wrong := r1
	wrong.Seed = 2
	if d.Add(wrong) {
		t.Fatal("wrong-seed record admitted")
	}
	if !d.Add(r1) {
		t.Fatal("second fresh record rejected")
	}
	if d.Len() != 2 || !d.Has(r0.Digest) || !d.Has(r1.Digest) {
		t.Fatalf("dedup state: len=%d", d.Len())
	}
	ordered := d.Ordered(pts)
	if len(ordered) != 2 {
		t.Fatalf("ordered merge has %d records", len(ordered))
	}
	for i, rec := range ordered {
		if rec.Index != i || rec.Digest != DigestKey(pts[i]) {
			t.Fatalf("ordered[%d] = index %d digest %s", i, rec.Index, rec.Digest)
		}
	}
}

// TestShardDigests pins the assignment rule every run reads (Config.Slots):
// i mod n assignment, duplicates owned once at their first occurrence, and
// the shard union covering every unique digest exactly once.
func TestShardDigests(t *testing.T) {
	pts := mergeTestPoints(t)
	dup := append(append([]Point{}, pts...), pts[0]) // sampled spaces repeat coordinates
	seq, err := Config{Shards: 2}.Slots(dup)
	if err != nil {
		t.Fatal(err)
	}
	slots := slices.Collect(seq)
	if len(slots) != len(dup) {
		t.Fatalf("%d slots for %d points", len(slots), len(dup))
	}
	seen := map[string]int{}
	total := 0
	for i, s := range slots {
		if s.Index != i || s.Key != DigestKey(dup[i]) {
			t.Fatalf("slot %d = index %d key %s", i, s.Index, s.Key)
		}
		if s.Shard < 0 {
			continue
		}
		if s.Shard != i%2 {
			t.Fatalf("point %d assigned to shard %d, want %d", i, s.Shard, i%2)
		}
		seen[s.Key]++
		total++
	}
	if total != len(pts) {
		t.Fatalf("shard union has %d digests, want %d unique", total, len(pts))
	}
	for dg, n := range seen {
		if n != 1 {
			t.Fatalf("digest %s assigned to %d shards", dg, n)
		}
	}
	if last := slots[len(dup)-1]; last.Shard != -1 {
		t.Fatalf("repeat of point 0 at index %d assigned to shard %d, want the first occurrence's", last.Index, last.Shard)
	}
	if _, err := (Config{Shard: 2, Shards: 2}).Slots(pts); err == nil {
		t.Fatal("shard 2 of 2 accepted")
	}
}
