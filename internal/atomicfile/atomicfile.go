// Package atomicfile replaces a file's contents in one step, so a reader
// or a crash sees either the old contents or the new, never a torn file.
package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
)

// Write replaces the file at path with data. It writes a temp file named
// "<base>.tmp*" in path's directory, fsyncs and closes it, and renames it
// over path; on any failure it removes the temp file. The directory itself
// is not fsynced, so a crash right after Write returns may still leave the
// old file in place.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
