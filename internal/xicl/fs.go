package xicl

import (
	"fmt"
	"os"
)

// FS abstracts the filesystem the translator reads input files from. The
// experiment harness supplies a virtual filesystem holding synthesized
// benchmark inputs; real deployments use OSFS.
type FS interface {
	// ReadFile returns the content of the named file.
	ReadFile(path string) ([]byte, error)
	// Size returns the file's length in bytes without necessarily
	// reading it.
	Size(path string) (int64, error)
}

// OSFS reads from the host filesystem.
type OSFS struct{}

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) Size(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// MapFS is an in-memory filesystem keyed by path.
type MapFS map[string][]byte

func (m MapFS) ReadFile(path string) ([]byte, error) {
	b, ok := m[path]
	if !ok {
		return nil, fmt.Errorf("xicl: no such file %q", path)
	}
	return b, nil
}

func (m MapFS) Size(path string) (int64, error) {
	b, ok := m[path]
	if !ok {
		return 0, fmt.Errorf("xicl: no such file %q", path)
	}
	return int64(len(b)), nil
}
