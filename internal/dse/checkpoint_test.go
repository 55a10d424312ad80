package dse

// Tests for the checkpoint writer: a torn tail never swallows the next
// record, Publish writes the one canonical order, and every way of
// producing a sweep's records into one file (resume after a kill, resume
// over a torn tail, shards run one after the other) leaves the bytes a
// fresh unsharded sweep writes.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// loadCheckpoint reads the records of a checkpoint file without opening it
// for writing.
func loadCheckpoint(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return parseRecords(data)
}

// freshCheckpoint runs points as one fresh sweep into a new checkpoint and
// returns the file's bytes: the reference every other route must match.
func freshCheckpoint(t *testing.T, points []Point, cfg Config) []byte {
	t.Helper()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "fresh.jsonl")
	if _, err := Sweep(context.Background(), points, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func appendTorn(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":7,"digest":"beef`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func sameFile(t *testing.T, path string, want []byte, what string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: checkpoint (%d bytes) differs from the expected %d bytes:\n%s\nwant:\n%s",
			what, len(got), len(want), got, want)
	}
}

// TestCheckpointWriterAppendAfterTornTail pins that the first record
// appended after a torn tail lands on a line of its own and is recovered
// by the next open.
func TestCheckpointWriterAppendAfterTornTail(t *testing.T) {
	pts := mergeTestPoints(t)
	r0, r1 := Evaluate(pts[0], 1), Evaluate(pts[1], 1)
	r1.Index = 1
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(r0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appendTorn(t, path)

	w, err = OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := w.Records()
	if len(recs) != 2 || recs[0].Digest != r0.Digest || recs[1].Digest != r1.Digest {
		t.Fatalf("reopened checkpoint holds %d records, want r0 and the record appended after the torn tail", len(recs))
	}
}

// TestCheckpointPublishCanonicalOrder pins Publish's rule: lines of other
// keys stay verbatim and in file order, the given records follow in the
// given order with repeats written once, torn and malformed lines drop
// out, and appends after Publish extend the published file.
func TestCheckpointPublishCanonicalOrder(t *testing.T) {
	pts := mergeTestPoints(t)
	a, b := Evaluate(pts[0], 1), Evaluate(pts[1], 1)
	b.Index = 1
	other := Evaluate(pts[1], 7) // same point, another seed: another key
	low := EvaluateAt(pts[0], 1, 8)
	enc := func(r Record) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(data) + "\n"
	}
	// An explicit bishop tag is a valid spelling that Publish must keep
	// byte for byte, not re-encode.
	spelled := bytes.Replace([]byte(enc(other)), []byte(`"seed"`), []byte(`"backend":"bishop","seed"`), 1)

	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte(enc(b)+string(spelled)+"not json\n"+enc(low)+enc(a)), 0o644); err != nil {
		t.Fatal(err)
	}
	appendTorn(t, path)
	w, err := OpenCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Publish([]Record{a, b, a}); err != nil {
		t.Fatal(err)
	}
	want := string(spelled) + enc(low) + enc(a) + enc(b)
	sameFile(t, path, []byte(want), "publish")

	extra := Evaluate(pts[0], 3)
	if err := w.Append(extra); err != nil {
		t.Fatal(err)
	}
	sameFile(t, path, []byte(want+enc(extra)), "append after publish")
}

// TestSweepResumeOverTornTailByteIdentical: a sweep resumed over a torn
// tail leaves the bytes of a clean run, and resuming again evaluates
// nothing.
func TestSweepResumeOverTornTailByteIdentical(t *testing.T) {
	points := testSpace().Grid()
	want := freshCheckpoint(t, points, Config{Seed: 1})

	ckpt := filepath.Join(t.TempDir(), "torn.jsonl")
	if _, err := Sweep(context.Background(), points[:3], Config{Seed: 1, Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	appendTorn(t, ckpt)
	rs, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Evaluated != len(points)-3 {
		t.Fatalf("resume evaluated %d points, want %d", rs.Evaluated, len(points)-3)
	}
	sameFile(t, ckpt, want, "resume over a torn tail")

	again, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if again.Evaluated != 0 {
		t.Fatalf("second resume evaluated %d points, want 0", again.Evaluated)
	}
	sameFile(t, ckpt, want, "second resume")
}

// TestSweepCancelResumeByteIdentical: a sweep cancelled after its first
// record and then resumed leaves the bytes of an uninterrupted run.
func TestSweepCancelResumeByteIdentical(t *testing.T) {
	points := testSpace().Grid()
	want := freshCheckpoint(t, points, Config{Seed: 1})

	ckpt := filepath.Join(t.TempDir(), "cancel.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := Sweep(ctx, points, Config{Seed: 1, Checkpoint: ckpt, Jobs: 2,
		OnRecord: func(Record) { cancel() }})
	if err == nil || partial.Complete() {
		t.Fatalf("cancelled sweep: err %v, %d of %d records", err, len(partial.Records), len(points))
	}
	if _, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt, Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	sameFile(t, ckpt, want, "cancel then resume")
}

// TestShardsIntoOneFileByteIdentical: shards 0/2 and 1/2 run one after the
// other into one checkpoint leave the bytes of the unsharded run.
func TestShardsIntoOneFileByteIdentical(t *testing.T) {
	points := testSpace().Grid()
	want := freshCheckpoint(t, points, Config{Seed: 1})

	ckpt := filepath.Join(t.TempDir(), "shared.jsonl")
	for shard := 0; shard < 2; shard++ {
		if _, err := Sweep(context.Background(), points,
			Config{Seed: 1, Checkpoint: ckpt, Shard: shard, Shards: 2, Jobs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	sameFile(t, ckpt, want, "shards 0/2 then 1/2")
}
