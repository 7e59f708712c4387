package store

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// The key index solves an asymmetry of the disk layout: artifacts are
// filed by Key.ID(), a one-way hash of the key's components, so a
// directory walk alone can recover the *addresses* of the artifacts but
// never their keys — and the anti-entropy sweep needs keys (the replica
// set ranks by the key's program fingerprint, verification dispatches on
// its space). The index is an append-only JSON-lines file of every key
// this store has held, deduplicated on load; it is advisory metadata,
// not a tier: a lost or corrupt index costs sweep coverage until peers
// re-advertise the keys, never data.

// indexFile is the key index's name inside the disk tier's directory
// (artifact fan-out uses two-hex-digit subdirectories, so the name can
// never collide with artifact storage).
const indexFile = "index.jsonl"

// loadIndex reads the persisted key index and opens the append handle.
// Unparseable lines are skipped — the index is advisory, and a torn tail
// from a crash mid-append must not block startup.
func (s *Store) loadIndex() error {
	path := filepath.Join(s.dir, indexFile)
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 4096), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var k Key
			if json.Unmarshal(line, &k) != nil {
				continue
			}
			s.known[k] = true
			s.persisted[k] = true
		}
		f.Close()
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.idxF = f
	return nil
}

// noteKeyLocked records a key in the in-memory set and, for disk-backed
// stores, appends it to the persisted index on first sight. Caller holds
// s.mu. Append errors are swallowed: the index degrades sweep coverage,
// it must not fail a Put.
func (s *Store) noteKeyLocked(k Key) {
	if s.known[k] {
		return
	}
	s.known[k] = true
	if s.idxF == nil || s.persisted[k] {
		return
	}
	if line, err := json.Marshal(k); err == nil {
		if _, err := s.idxF.Write(append(line, '\n')); err == nil {
			s.persisted[k] = true
		}
	}
}

// Keys returns every key this store has held (sorted by ID for
// deterministic iteration): the memory tier's current population, the
// disk tier's accumulated history via the persisted index, and keys seen
// earlier in this process. Dropped keys are excluded until re-stored.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	out := make([]Key, 0, len(s.known))
	for k := range s.known {
		out = append(out, k)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Drop removes k from both local tiers and from the known-key set: the
// repair path's answer to an artifact whose bytes no longer match their
// content address. The persisted index is append-only, so the key
// resurfaces in Keys() after a restart — harmless, since a sweep that
// finds it missing simply re-pulls it from a replica.
func (s *Store) Drop(k Key) {
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.ll.Remove(el)
		delete(s.items, k)
		delete(s.byID, el.Value.(*entry).id)
	}
	delete(s.known, k)
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		os.Remove(s.path(k))
	}
}
