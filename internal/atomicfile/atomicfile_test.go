package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteReplacesContents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	for _, want := range []string{"first", "second, longer contents", ""} {
		if err := Write(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("contents %q, want %q", got, want)
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "f.json" {
			t.Fatalf("directory holds %v, want only f.json", names)
		}
	}
}

func TestWriteFailureLeavesNoTempFile(t *testing.T) {
	// A missing directory fails before any temp file exists.
	if err := Write(filepath.Join(t.TempDir(), "missing", "f.json"), []byte("x")); err == nil {
		t.Fatal("Write into a missing directory succeeded")
	}
	// A directory in the destination's place fails the rename, after the
	// temp file was written: the temp file must be removed.
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "child"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []byte("x")); err == nil {
		t.Fatal("Write over a non-empty directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "f.json" {
		t.Fatalf("directory holds %v after a failed Write, want only f.json", names)
	}
}
