package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
)

// CheckpointWriter owns one checkpoint file: an append-only JSONL record
// store, one Record per line. Sweeps append fresh records in enumeration
// order and the fleet coordinator appends worker lines verbatim; each
// append is fsynced before it returns, so a killed writer loses at most the
// records it had not yet appended. A torn final line (the process died
// mid-write) is cut off when the file is opened again, and the interrupted
// point simply re-evaluates. Publish rewrites the file into its canonical
// order. A checkpoint file has one writer at a time.
type CheckpointWriter struct {
	path   string
	f      *os.File
	recs   []Record
	loaded bool // the file held at least one complete line at open
}

// OpenCheckpointWriter loads the existing records of path (if any), cuts
// off a torn final line, and opens the file for appending, creating it when
// absent.
func OpenCheckpointWriter(path string) (*CheckpointWriter, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("dse: read checkpoint: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dse: open checkpoint: %w", err)
	}
	keep := bytes.LastIndexByte(data, '\n') + 1
	if keep < len(data) {
		if err := f.Truncate(int64(keep)); err != nil {
			_ = f.Close() // the truncate error wins
			return nil, fmt.Errorf("dse: cut torn checkpoint tail: %w", err)
		}
	}
	return &CheckpointWriter{path: path, f: f, recs: parseRecords(data[:keep]), loaded: keep > 0}, nil
}

// parseRecords decodes JSONL content, skipping blank and malformed lines
// (strictly: unknown fields also reject a line, so records written by a
// different schema version are re-evaluated rather than half-read). A line
// without a backend tag is a bishop record — the pre-backend format and the
// canonical bishop spelling are the same bytes — and a tagged line whose
// options document does not decode against its registered backend is
// dropped like any other malformed line.
func parseRecords(data []byte) []Record {
	var recs []Record
	for line := range bytes.SplitSeq(data, []byte{'\n'}) {
		if r, ok := ParseRecordLine(line); ok {
			recs = append(recs, r)
		}
	}
	return recs
}

// Records returns the records loaded at open time.
func (w *CheckpointWriter) Records() []Record { return w.recs }

// Append marshals and durably appends one record. The caller serializes
// Append/AppendLine calls.
func (w *CheckpointWriter) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dse: marshal record: %w", err)
	}
	return w.AppendLine(data)
}

// AppendLine durably appends one checkpoint-format line verbatim (no
// trailing newline in line). The caller is responsible for having validated
// it with ParseRecordLine — appending worker-received bytes unmodified is
// what keeps a fleet-merged checkpoint byte-identical to a local sweep's.
func (w *CheckpointWriter) AppendLine(line []byte) error {
	if _, err := w.f.Write(append(append([]byte{}, line...), '\n')); err != nil {
		return fmt.Errorf("dse: append checkpoint: %w", err)
	}
	return w.f.Sync()
}

// recordKey is what makes two records the same result: a point at one
// trace seed and fidelity.
type recordKey struct {
	digest   string
	seed     uint64
	fidelity int
}

func keyOf(r Record) recordKey { return recordKey{r.Digest, r.Seed, r.Fidelity} }

// Publish atomically replaces the file with its canonical form for recs:
// every valid line already in the file whose (digest, seed, fidelity) is
// not among recs, verbatim and in file order, then recs in the order given
// (a repeated key is written once, at its first occurrence). Torn and
// malformed lines drop out. Later appends extend the published file.
//
// Given a sweep's records in enumeration order, that is the file a fresh,
// unsharded run of the same sweep writes, whatever mix of resumes, shards,
// cache hits and fleet workers produced the records.
func (w *CheckpointWriter) Publish(recs []Record) error {
	data, err := os.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("dse: read checkpoint: %w", err)
	}
	pending := make(map[recordKey]bool, len(recs))
	for _, r := range recs {
		pending[keyOf(r)] = true
	}
	var out bytes.Buffer
	for line := range bytes.SplitSeq(data, []byte{'\n'}) {
		if r, ok := ParseRecordLine(line); ok && !pending[keyOf(r)] {
			out.Write(line)
			out.WriteByte('\n')
		}
	}
	for _, r := range recs {
		if k := keyOf(r); pending[k] {
			pending[k] = false
			line, err := json.Marshal(r)
			if err != nil {
				return fmt.Errorf("dse: marshal record: %w", err)
			}
			out.Write(append(line, '\n'))
		}
	}
	write := func(dst io.Writer) error { _, err := out.WriteTo(dst); return err }
	if err := atomicfile.Write(w.path, write); err != nil {
		return fmt.Errorf("dse: publish checkpoint: %w", err)
	}
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("dse: reopen checkpoint: %w", err)
	}
	old := w.f
	w.f = f
	return old.Close()
}

// Close closes the file.
func (w *CheckpointWriter) Close() error { return w.f.Close() }
