// Package progstore is the content-addressed compile cache behind the
// programs-as-data serving tier: user-submitted ATC (DSL) source goes in,
// a hash comes back, and jobs thereafter run the cached compiled program
// by hash. The paper presents AdaptiveTC as a language whose compiler
// emits adaptive task-creation code; this package is what turns the
// resident service from a fixed catalog into a host for that language.
//
// Identity is the SHA-256 of the canonicalized source (lang.HashSource):
// reformat a program, resubmit it, and it lands on the same entry. Cache
// policy is LRU with both a count cap and a byte cap over canonical
// source. Compilation of the same source by concurrent submitters is
// single-flight — one compile, everyone shares the result — and compile
// *failures* are negatively cached for a short TTL keyed by the raw
// source bytes, so a client hammering a broken program replays the
// position-annotated diagnostic instead of re-running the compiler.
//
// Compiled programs are safe to share across concurrent jobs: after the
// init probe, a lang.Program only reads its shared tables and mutates
// per-task cloned workspaces (writes to shared state outside init are
// compile errors), so one *lang.Program instance serves any number of
// simultaneous runs. Per-run parameter overrides ("n", the registry's N
// knob) produce distinct compiled variants cached under the same entry.
package progstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptivetc/internal/lang"
	"adaptivetc/internal/sched"
)

// ErrUnknown reports a lookup of a hash the store does not hold — never
// submitted, deleted, or evicted. The client re-submits the source.
var ErrUnknown = errors.New("progstore: unknown program hash")

// Config bounds the cache. Zero values take the defaults.
type Config struct {
	// MaxPrograms caps the number of cached programs; default 256.
	MaxPrograms int
	// MaxBytes caps the total canonical source bytes; default 8 MiB.
	MaxBytes int64
	// ErrTTL is how long a compile failure is served from the negative
	// cache before the compiler runs again; default 10s.
	ErrTTL time.Duration
	// InitBudget bounds for-loop iterations when probing a submission's
	// init block (lang.NewProgramGuarded); default 1<<22.
	InitBudget int64
	// MaxVariants caps per-entry compiled parameter variants; default 32.
	MaxVariants int
}

func (c Config) withDefaults() Config {
	if c.MaxPrograms <= 0 {
		c.MaxPrograms = 256
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	if c.ErrTTL <= 0 {
		c.ErrTTL = 10 * time.Second
	}
	if c.MaxVariants <= 0 {
		c.MaxVariants = 32
	}
	return c
}

// Meta is one cached program's catalog entry.
type Meta struct {
	// Hash is the content address: hex SHA-256 of the canonical source.
	Hash string `json:"hash"`
	// Name is the submitter-chosen display name (not part of identity).
	Name string `json:"name"`
	// SourceBytes is the canonical source size.
	SourceBytes int `json:"source_bytes"`
	// Params are the program's compile-time parameters with their default
	// values — the knobs a job submission may override per run.
	Params map[string]int64 `json:"params,omitempty"`
	// StateCells is the total declared state (taskprivate + shared cells).
	StateCells int64 `json:"state_cells"`
	// Created is when this entry was (re)inserted.
	Created time.Time `json:"created"`
}

// entry is one cached program: metadata, canonical source, and the
// compiled variants keyed by their override signature ("" = defaults).
type entry struct {
	meta      Meta
	canonical string
	variants  map[string]*lang.Program

	// LRU links (most recent at head.next).
	prev, next *entry
}

type negEntry struct {
	err error
	at  time.Time
}

// flight is one in-progress compilation; latecomers wait on done.
type flight struct {
	done chan struct{}
	prog *lang.Program
	err  error
}

// Stats is the cache counter snapshot.
type Stats struct {
	Cached     int   `json:"programs_cached"`
	Bytes      int64 `json:"program_cache_bytes"`
	Hits       int64 `json:"compile_hits"`
	Misses     int64 `json:"compile_misses"`
	ErrHits    int64 `json:"compile_error_hits"`
	Evictions  int64 `json:"program_evictions"`
	SingleWait int64 `json:"compile_singleflight_waits"`
}

// Store is the compile cache.
type Store struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry
	head    entry // LRU sentinel: head.next is most recent
	bytes   int64
	neg     map[string]negEntry
	flights map[string]*flight

	hits, misses, errHits, evictions, singleWait atomic.Int64

	// compileHook, when set, runs inside every leader compilation (tests
	// count and stall compiles through it).
	compileHook func()
}

// New builds an empty store.
func New(cfg Config) *Store {
	s := &Store{
		cfg:     cfg.withDefaults(),
		entries: make(map[string]*entry),
		neg:     make(map[string]negEntry),
		flights: make(map[string]*flight),
	}
	s.head.prev, s.head.next = &s.head, &s.head
	return s
}

func (s *Store) lruUnlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (s *Store) lruFront(e *entry) {
	e.prev, e.next = &s.head, s.head.next
	e.prev.next, e.next.prev = e, e
}

// rawHash keys the negative cache: the submitter retries the same bytes,
// so identity-before-canonicalization is what a failure should stick to
// (a lex error has no canonical form at all).
func rawHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// Put canonicalizes, hashes, and — if the program is new — compiles and
// caches src under the submitted display name. It returns the entry's
// metadata and whether this call inserted it (false: it was already
// cached, a compile hit). Compile and init-probe failures come back as
// position-annotated *lang.Error values and are negatively cached for
// cfg.ErrTTL.
func (s *Store) Put(name, src string) (Meta, bool, error) {
	raw := rawHash(src)
	s.mu.Lock()
	if ne, ok := s.neg[raw]; ok {
		if time.Since(ne.at) < s.cfg.ErrTTL {
			s.mu.Unlock()
			s.errHits.Add(1)
			return Meta{}, false, ne.err
		}
		delete(s.neg, raw)
	}
	s.mu.Unlock()

	hash, canonical, herr := lang.HashSource(src)
	if herr != nil {
		s.cacheFailure(raw, herr)
		return Meta{}, false, herr
	}

	s.mu.Lock()
	if e, ok := s.entries[hash]; ok {
		s.lruUnlink(e)
		s.lruFront(e)
		m := e.meta
		s.mu.Unlock()
		s.hits.Add(1)
		return m, false, nil
	}
	s.mu.Unlock()

	// Single-flight: one compile per hash, no matter how many submitters.
	prog, leader, err := s.compileShared(hash, name, src, nil)
	if err != nil {
		if leader {
			s.cacheFailure(raw, err)
		}
		return Meta{}, false, err
	}
	meta := Meta{
		Hash:        hash,
		Name:        name,
		SourceBytes: len(canonical),
		Params:      prog.Compiled().Params(),
		StateCells:  prog.Compiled().StateCells(),
		Created:     time.Now(),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[hash]; ok {
		// A racing submitter inserted first; theirs wins.
		s.lruUnlink(e)
		s.lruFront(e)
		return e.meta, false, nil
	}
	e := &entry{meta: meta, canonical: canonical, variants: map[string]*lang.Program{"": prog}}
	s.entries[hash] = e
	s.bytes += int64(len(canonical))
	s.lruFront(e)
	s.evictLocked()
	return meta, true, nil
}

// cacheFailure records a compile failure in the negative cache.
func (s *Store) cacheFailure(raw string, err error) {
	s.mu.Lock()
	s.neg[raw] = negEntry{err: err, at: time.Now()}
	// Bound the negative cache opportunistically: drop expired entries,
	// and if a flood of distinct broken sources piles up, drop all of it —
	// it is only a latency shield, never a correctness layer.
	if len(s.neg) > 1024 {
		for k, ne := range s.neg {
			if time.Since(ne.at) >= s.cfg.ErrTTL {
				delete(s.neg, k)
			}
		}
		if len(s.neg) > 1024 {
			s.neg = make(map[string]negEntry)
		}
	}
	s.mu.Unlock()
}

// compileShared runs (or joins) the single-flight compilation of src with
// the given overrides, keyed by hash+overrides. leader reports whether
// this call did the compile (and thus owns failure caching).
func (s *Store) compileShared(hash, name, src string, overrides map[string]int64) (*lang.Program, bool, error) {
	key := hash + "|" + overridesKey(overrides)
	s.mu.Lock()
	if fl, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.singleWait.Add(1)
		<-fl.done
		return fl.prog, false, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	hook := s.compileHook
	s.mu.Unlock()

	if hook != nil {
		hook()
	}
	fl.prog, fl.err = lang.CompileProgramGuarded(name, src, overrides, s.cfg.InitBudget)
	s.misses.Add(1)

	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(fl.done)
	return fl.prog, true, fl.err
}

// overridesKey renders an override set canonically ("k=3,n=8").
func overridesKey(ov map[string]int64) string {
	if len(ov) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ov))
	for k := range ov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, ov[k])
	}
	return b.String()
}

// evictLocked drops least-recently-used entries past the caps (always
// keeping at least one).
func (s *Store) evictLocked() {
	for len(s.entries) > 1 &&
		(len(s.entries) > s.cfg.MaxPrograms || s.bytes > s.cfg.MaxBytes) {
		victim := s.head.prev
		s.lruUnlink(victim)
		delete(s.entries, victim.meta.Hash)
		s.bytes -= int64(len(victim.canonical))
		s.evictions.Add(1)
	}
}

// Get returns the metadata and canonical source cached under hash,
// bumping its recency.
func (s *Store) Get(hash string) (Meta, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok {
		return Meta{}, "", false
	}
	s.lruUnlink(e)
	s.lruFront(e)
	return e.meta, e.canonical, true
}

// Delete evicts hash. It reports whether the hash was cached.
func (s *Store) Delete(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok {
		return false
	}
	s.lruUnlink(e)
	delete(s.entries, hash)
	s.bytes -= int64(len(e.canonical))
	return true
}

// Program returns a runnable compiled program for hash with the given
// parameter overrides, compiling (single-flight) and caching the variant
// on first use. Unknown hashes return ErrUnknown; an override for a
// parameter the program does not declare is a compile error.
func (s *Store) Program(hash string, overrides map[string]int64) (sched.Program, error) {
	key := overridesKey(overrides)
	s.mu.Lock()
	e, ok := s.entries[hash]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknown, hash)
	}
	s.lruUnlink(e)
	s.lruFront(e)
	if v, ok := e.variants[key]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return v, nil
	}
	name, src := e.meta.Name, e.canonical
	s.mu.Unlock()

	prog, _, err := s.compileShared(hash, name, src, overrides)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// The entry may have been evicted while compiling; the caller still
	// gets a usable program either way.
	if e, ok := s.entries[hash]; ok {
		if len(e.variants) >= s.cfg.MaxVariants {
			for k := range e.variants {
				if k != "" {
					delete(e.variants, k)
					break
				}
			}
		}
		e.variants[key] = prog
	}
	return prog, nil
}

// List returns the cached programs, most recently used first.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.entries))
	for e := s.head.next; e != &s.head; e = e.next {
		out = append(out, e.meta)
	}
	return out
}

// Snapshot returns the cache counters.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	cached, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Stats{
		Cached:     cached,
		Bytes:      bytes,
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		ErrHits:    s.errHits.Load(),
		Evictions:  s.evictions.Load(),
		SingleWait: s.singleWait.Load(),
	}
}
