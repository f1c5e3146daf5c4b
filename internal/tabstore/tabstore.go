// Package tabstore is the versioned store for platform latency tables —
// the lifecycle layer behind the paper's Table 2. The contention bounds
// are only as good as the measured characterisation they consume, so the
// calibration artifact itself gets first-class management: tables are
// immutable, content-addressed values (ID = SHA-256 of the canonical
// encoding, so two identical characterisations share one identity no
// matter who measured them), and mutable intent lives exclusively in
// named refs ("tc27x/default") that can be retargeted atomically.
//
// A Store is either purely in-memory (Open("")) or persisted to a data
// directory with one JSON file per table and one file per ref:
//
//	<dir>/tables/<id>.json
//	<dir>/refs/<name>
//
// Tables and refs are written with store.WriteFileAtomic (synced temp
// file + rename), so a crash never leaves either half-written. Every
// table is validated on Put and again on load, and a loaded table whose
// content does not hash to its filename is rejected — the store never
// serves a characterisation that silently changed on disk.
package tabstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"

	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Process-wide table-lifecycle telemetry on the default registry
// (exposed by wcetd's GET /metrics).
var (
	mRegistrations = telemetry.Default().Counter("tabstore_registrations_total",
		"Tables newly registered (idempotent re-Puts of known content excluded).")
	mRefUpdates = telemetry.Default().Counter("tabstore_ref_updates_total",
		"Ref creations and retargets (promotes included).")
	mResolves = telemetry.Default().Counter("tabstore_resolves_total",
		"Ref/ID lookups served.")
)

// ID is the immutable identity of one latency table: the hex SHA-256 of
// its canonical encoding.
type ID string

// Valid reports whether id has the shape of a table ID (64 hex digits).
func (id ID) Valid() bool {
	if len(id) != 64 {
		return false
	}
	for _, c := range id {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// CanonicalEncoding renders a table in the store's canonical form: every
// legal access path in platform.AccessPairs order as "path:max/min/stall;".
// Two tables have equal encodings iff every model-visible figure is equal,
// so the SHA-256 of this string is a sound content address.
func CanonicalEncoding(lt platform.LatencyTable) string {
	var b strings.Builder
	for _, to := range platform.AccessPairs() {
		l := lt[to.Target][to.Op]
		fmt.Fprintf(&b, "%s:%d/%d/%d;", to, l.Max, l.Min, l.Stall)
	}
	return b.String()
}

// TableID computes the content address of a table.
func TableID(lt platform.LatencyTable) ID {
	sum := sha256.Sum256([]byte(CanonicalEncoding(lt)))
	return ID(hex.EncodeToString(sum[:]))
}

// Entry is one access path's figures in the interchange format.
type Entry struct {
	// LMax is the worst-case end-to-end latency per request (l^{t,o}).
	LMax int64 `json:"lmax"`
	// LMin is the best-case end-to-end latency per request.
	LMin int64 `json:"lmin"`
	// Stall is the minimum stall cycles one request charges (cs^{t,o}).
	Stall int64 `json:"stall"`
}

// TableJSON is the store's interchange format — machine-readable Table-2
// rows keyed by access path ("pf0/co"). It is what the tables persist as
// on disk, what the /v2/tables wire surface carries, and what
// cmd/calibrate -json emits.
type TableJSON struct {
	Paths map[string]Entry `json:"paths"`
}

// Encode renders a table in the interchange format.
func Encode(lt platform.LatencyTable) TableJSON {
	out := TableJSON{Paths: make(map[string]Entry, 7)}
	for _, to := range platform.AccessPairs() {
		l := lt[to.Target][to.Op]
		out.Paths[to.String()] = Entry{LMax: l.Max, LMin: l.Min, Stall: l.Stall}
	}
	return out
}

// Decode parses the interchange format back into a table, requiring every
// legal access path to be present (and only legal paths), and the result
// to satisfy the platform invariants.
func Decode(tj TableJSON) (platform.LatencyTable, error) {
	var lt platform.LatencyTable
	legal := make(map[string]platform.TargetOp, 7)
	for _, to := range platform.AccessPairs() {
		legal[to.String()] = to
	}
	for path := range tj.Paths {
		if _, ok := legal[path]; !ok {
			return lt, fmt.Errorf("tabstore: unknown access path %q", path)
		}
	}
	for path, to := range legal {
		e, ok := tj.Paths[path]
		if !ok {
			return lt, fmt.Errorf("tabstore: table is missing access path %q", path)
		}
		lt[to.Target][to.Op] = platform.Latency{Max: e.LMax, Min: e.LMin, Stall: e.Stall}
	}
	if err := lt.Validate(); err != nil {
		return platform.LatencyTable{}, err
	}
	return lt, nil
}

// refNameRE restricts ref names: slash-separated segments of word
// characters, dots and dashes ("tc27x/default", "soc9/respin-b"). The
// name doubles as a relative file path under refs/, so path traversal
// shapes are unrepresentable by construction.
var refNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+(/[A-Za-z0-9._-]+)*$`)

// ValidateRefName rejects names that cannot be refs: malformed shapes,
// path-traversal segments, names that look like table IDs (a 64-hex-char
// ref would shadow that content address in Resolve, breaking immutable-ID
// pinning), and a final "promote" segment (reserved by the serving
// layer's /v2/tables/{ref}/promote route — such a ref would be
// registrable but unreachable over the wire).
func ValidateRefName(name string) error {
	if !refNameRE.MatchString(name) {
		return fmt.Errorf("tabstore: invalid ref name %q (want slash-separated [A-Za-z0-9._-] segments)", name)
	}
	segs := strings.Split(name, "/")
	for _, seg := range segs {
		if seg == "." || seg == ".." {
			return fmt.Errorf("tabstore: invalid ref name %q (%q segment)", name, seg)
		}
	}
	if segs[len(segs)-1] == "promote" {
		return fmt.Errorf("tabstore: invalid ref name %q (final segment %q is reserved)", name, "promote")
	}
	if ID(name).Valid() {
		return fmt.Errorf("tabstore: invalid ref name %q (shaped like a table ID)", name)
	}
	return nil
}

// Store is a concurrency-safe table store. The zero value is not usable;
// construct with Open.
type Store struct {
	mu     sync.RWMutex
	dir    string // "" = in-memory only
	tables map[ID]platform.LatencyTable
	refs   map[string]ID
}

// Open loads (or initialises) a store. An empty dir yields a purely
// in-memory store; otherwise the directory is created as needed and every
// persisted table and ref is loaded and verified.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:    dir,
		tables: make(map[ID]platform.LatencyTable),
		refs:   make(map[string]ID),
	}
	if dir == "" {
		return s, nil
	}
	for _, sub := range []string{s.tablesDir(), s.refsDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("tabstore: %w", err)
		}
	}
	if err := s.loadTables(); err != nil {
		return nil, err
	}
	if err := s.loadRefs(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) tablesDir() string { return filepath.Join(s.dir, "tables") }
func (s *Store) refsDir() string   { return filepath.Join(s.dir, "refs") }

func (s *Store) loadTables() error {
	entries, err := os.ReadDir(s.tablesDir())
	if err != nil {
		return fmt.Errorf("tabstore: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		id := ID(strings.TrimSuffix(e.Name(), ".json"))
		if !id.Valid() {
			return fmt.Errorf("tabstore: stray file %q in tables dir", e.Name())
		}
		raw, err := os.ReadFile(filepath.Join(s.tablesDir(), e.Name()))
		if err != nil {
			return fmt.Errorf("tabstore: %w", err)
		}
		var tj TableJSON
		if err := json.Unmarshal(raw, &tj); err != nil {
			return fmt.Errorf("tabstore: table %s: %w", id, err)
		}
		lt, err := Decode(tj)
		if err != nil {
			return fmt.Errorf("tabstore: table %s: %w", id, err)
		}
		if got := TableID(lt); got != id {
			return fmt.Errorf("tabstore: table file %s hashes to %s — content changed on disk", id, got)
		}
		s.tables[id] = lt
	}
	return nil
}

func (s *Store) loadRefs() error {
	root := s.refsDir()
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if err := ValidateRefName(name); err != nil {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("tabstore: %w", err)
		}
		id := ID(strings.TrimSpace(string(raw)))
		if _, ok := s.tables[id]; !ok {
			return fmt.Errorf("tabstore: ref %q points at unknown table %q", name, id)
		}
		s.refs[name] = id
		return nil
	})
}

// Put registers a table, validating it first, and returns its content
// address. Putting an already-present table is a no-op returning the same
// ID — content addressing makes re-registration idempotent.
func (s *Store) Put(lt platform.LatencyTable) (ID, error) {
	if err := lt.Validate(); err != nil {
		return "", err
	}
	id := TableID(lt)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[id]; ok {
		return id, nil
	}
	if s.dir != "" {
		raw, err := json.MarshalIndent(Encode(lt), "", "  ")
		if err != nil {
			return "", fmt.Errorf("tabstore: %w", err)
		}
		raw = append(raw, '\n')
		if err := store.WriteFileAtomic(filepath.Join(s.tablesDir(), string(id)+".json"), raw); err != nil {
			return "", err
		}
	}
	s.tables[id] = lt
	mRegistrations.Inc()
	return id, nil
}

// Get returns the table behind an ID.
func (s *Store) Get(id ID) (platform.LatencyTable, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lt, ok := s.tables[id]
	return lt, ok
}

// SetRef atomically points name at id (creating or retargeting it). The
// target table must already be in the store.
func (s *Store) SetRef(name string, id ID) error {
	if err := ValidateRefName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[id]; !ok {
		return fmt.Errorf("tabstore: ref %q: unknown table %q", name, id)
	}
	if s.dir != "" {
		path := filepath.Join(s.refsDir(), filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("tabstore: %w", err)
		}
		if err := store.WriteFileAtomic(path, []byte(id+"\n")); err != nil {
			return err
		}
	}
	s.refs[name] = id
	mRefUpdates.Inc()
	return nil
}

// Resolve looks a reference up: a ref name first, else a literal table
// ID. It returns the table together with its immutable identity, so
// callers can pin "whatever the ref pointed at" across a ref retarget.
func (s *Store) Resolve(ref string) (platform.LatencyTable, ID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id, ok := s.refs[ref]; ok {
		mResolves.Inc()
		return s.tables[id], id, nil
	}
	if id := ID(ref); id.Valid() {
		if lt, ok := s.tables[id]; ok {
			mResolves.Inc()
			return lt, id, nil
		}
	}
	return platform.LatencyTable{}, "", fmt.Errorf("tabstore: unknown table ref %q (known refs: %s)", ref, strings.Join(s.refNamesLocked(), ", "))
}

// ResolveTable adapts Resolve to the wcet.TableStore interface (the ID as
// a plain string), so a *Store plugs straight into the SDK's Analyzer.
func (s *Store) ResolveTable(ref string) (platform.LatencyTable, string, error) {
	lt, id, err := s.Resolve(ref)
	return lt, string(id), err
}

// Refs returns the ref map, names sorted.
func (s *Store) Refs() []Ref {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Ref, 0, len(s.refs))
	for name, id := range s.refs {
		out = append(out, Ref{Name: name, ID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ref is one named pointer into the store.
type Ref struct {
	Name string
	ID   ID
}

// IDs lists every stored table, sorted.
func (s *Store) IDs() []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ID, 0, len(s.tables))
	for id := range s.tables {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len is the number of stored tables.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

func (s *Store) refNamesLocked() []string {
	names := make([]string, 0, len(s.refs))
	for name := range s.refs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
