// Package session is the cross-run state layer of the system. Where
// internal/exec executes one stateless run, a Session owns the learned
// state that outlives a run — the Evolve learner, the Rep repository,
// the GC selector — behind the CrossRunState interface, plus the
// memoized outputs of completed experiment work units. A Session
// serializes completely, so a process can checkpoint mid-experiment and
// a later process can resume it with bit-identical results (see
// DESIGN.md §8).
package session

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// CrossRunState is state that persists across runs and survives process
// restarts. Snapshot captures the full state as an opaque blob; Restore
// replaces the state from a blob. Snapshot-then-Restore must be a
// semantic no-op: after a Restore, all future behaviour (predictions,
// plans, confidences) is bit-identical to the snapshotted original.
type CrossRunState interface {
	Snapshot() (json.RawMessage, error)
	Restore(blob json.RawMessage) error
}

// savedSession is the checkpoint file format.
type savedSession struct {
	Version    int                        `json:"version"`
	Components map[string]json.RawMessage `json:"components,omitempty"`
	Units      map[string]json.RawMessage `json:"units,omitempty"`
}

const formatVersion = 1

// Session is a serializable container of cross-run components and
// completed work-unit outputs. All methods are safe for concurrent use.
type Session struct {
	mu         sync.Mutex
	components map[string]CrossRunState
	// pending holds component blobs loaded from a checkpoint before the
	// owning component has been attached; Attach consumes them.
	pending map[string]json.RawMessage
	units   map[string]json.RawMessage
}

// New returns an empty session.
func New() *Session {
	return &Session{
		components: make(map[string]CrossRunState),
		pending:    make(map[string]json.RawMessage),
		units:      make(map[string]json.RawMessage),
	}
}

// Attach registers a live component under name. If the session was
// loaded from a checkpoint that carried state for that name, the
// component is restored from it immediately. Attaching a name twice
// replaces the previous component (the usual pattern when an experiment
// rebuilds its per-benchmark state objects on resume).
func (s *Session) Attach(name string, c CrossRunState) error {
	s.mu.Lock()
	blob, ok := s.pending[name]
	s.components[name] = c
	s.mu.Unlock()
	if ok {
		if err := c.Restore(blob); err != nil {
			return fmt.Errorf("session: restore component %q: %w", name, err)
		}
	}
	return nil
}

// Unit returns the memoized output of a completed work unit.
func (s *Session) Unit(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.units[key]
	return raw, ok
}

// CompleteUnit records a work unit's output for checkpointing.
func (s *Session) CompleteUnit(key string, out json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.units[key] = out
}

// UnitKeys returns the completed unit keys in sorted order.
func (s *Session) UnitKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.units))
	for k := range s.units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Save writes the session — every attached component's snapshot, any
// still-pending component blobs, and all completed units — as JSON.
//
// Save captures one consistent view. An earlier version copied the unit
// map under the session lock but snapshotted components after releasing
// it, so a run that committed into a component while Save was in flight
// could appear in the component snapshot without its completed unit — a
// checkpoint whose resume would replay that run against a learner that
// had already learned it. Save therefore acquires the commit lock of
// every BenchState component (in name order, deduplicated by identity)
// before the session lock, and under them freezes each bench state and
// copies the units. A writer that brackets [run commit, CompleteUnit]
// with BeginRun/EndRun therefore cannot be split by a Save: the
// checkpoint's units and component states always describe the same run
// boundary. Freezing is cheap (see Frozen), and the JSON encoding and the
// write to w run after every lock is released, so chains keep committing
// while a checkpoint is written. Lock order everywhere: component commit
// lock → session lock; components must never call back into their
// session from Snapshot/Restore.
func (s *Session) Save(w io.Writer) error {
	s.mu.Lock()
	comps := make([]namedComponent, 0, len(s.components))
	for name, c := range s.components {
		comps = append(comps, namedComponent{name, c})
	}
	s.mu.Unlock()
	sort.Slice(comps, func(i, j int) bool { return comps[i].name < comps[j].name })

	saved, frozen, err := s.capture(comps)
	if err != nil {
		return err
	}
	for _, nf := range frozen {
		blob, err := nf.f.encode()
		if err != nil {
			return fmt.Errorf("session: snapshot component %q: %w", nf.name, err)
		}
		saved.Components[nf.name] = blob
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(saved)
}

type namedComponent struct {
	name string
	c    CrossRunState
}

type namedFrozen struct {
	name string
	f    *Frozen
}

// capture is Save's locked phase. It holds the commit lock of every
// bench-state component, then the session lock, while it copies the
// pending blobs and units, freezes each bench state, and snapshots any
// other component; it returns with every lock released.
func (s *Session) capture(comps []namedComponent) (savedSession, []namedFrozen, error) {
	// Deduplicate by identity: the same state attached under two names
	// must be locked once.
	locked := make(map[*BenchState]bool)
	for _, cp := range comps {
		if bs, ok := cp.c.(*BenchState); ok && !locked[bs] {
			locked[bs] = true
			bs.runMu.Lock()
			defer bs.runMu.Unlock()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	saved := savedSession{
		Version:    formatVersion,
		Components: make(map[string]json.RawMessage, len(comps)+len(s.pending)),
		Units:      maps.Clone(s.units),
	}
	maps.Copy(saved.Components, s.pending)
	var frozen []namedFrozen
	for _, cp := range comps {
		var err error
		if bs, ok := cp.c.(*BenchState); ok {
			var f *Frozen
			f, err = bs.freezeLocked() // commit lock already held above
			frozen = append(frozen, namedFrozen{cp.name, f})
		} else {
			saved.Components[cp.name], err = cp.c.Snapshot()
		}
		if err != nil {
			return savedSession{}, nil, fmt.Errorf("session: snapshot component %q: %w", cp.name, err)
		}
	}
	return saved, frozen, nil
}

// Load reads a session checkpoint written by Save. Component blobs stay
// pending until their components are attached.
func Load(r io.Reader) (*Session, error) {
	var saved savedSession
	if err := json.NewDecoder(r).Decode(&saved); err != nil {
		return nil, fmt.Errorf("session: load: %w", err)
	}
	if saved.Version != formatVersion {
		return nil, fmt.Errorf("session: checkpoint version %d, want %d", saved.Version, formatVersion)
	}
	s := New()
	for name, blob := range saved.Components {
		s.pending[name] = blob
	}
	for k, v := range saved.Units {
		s.units[k] = v
	}
	return s, nil
}

// SaveFile atomically writes the session checkpoint to path (write to a
// temp file in the same directory, then rename), so an interrupted save
// never corrupts an existing checkpoint.
func (s *Session) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := s.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
