package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWrite pins the publish contract: a successful Write replaces the file
// whole, a failing one leaves the previous file and no temp file behind.
func TestWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := Write(path, put("old")); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, put("new")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		put("half")(w)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed fill returned %v, want it wrapped", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("after a failed publish the file holds %q (%v), want \"new\"", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the published file", len(entries))
	}
	if err := Write(filepath.Join(dir, "missing", "f"), put("x")); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
}
