// Package atomicfile is the one way the program publishes a durable file:
// the trace store, the result cache, trace exports and checkpoint
// compaction all go through Write, so a reader of the final path only ever
// sees the previous complete file or the new complete file.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write publishes the bytes fill writes as path. They land in a temp file
// (named .tmp-*) in path's directory, which is synced, closed and renamed
// over path; on any failure the temp file is removed and path is untouched.
// Concurrent writers of one path each publish a complete file and the last
// rename wins.
func Write(path string, fill func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmp := f.Name()
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: publish %s: %w", path, err)
	}
	return nil
}
