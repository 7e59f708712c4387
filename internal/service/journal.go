package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"res/internal/fault"
	"res/internal/store"
)

// Journal is a per-node append-only record of the service's durable
// metadata: program registrations (by source) and terminal job outcomes
// (ID, fingerprint key, bucket membership). Result and dump *blobs*
// already survive restarts via the content-addressed store's disk tier;
// the journal makes the metadata around them — which jobs exist, which
// bucket each landed in, which programs were registered — survive too,
// so a restarted daemon still answers result polls and lists its crash
// buckets instead of coming back amnesiac.
//
// The format is JSON-lines: one self-contained entry per line, appended
// and fsynced, so a crash mid-append loses at most the torn final line
// (replay stops at the first unparseable line). When the live tail grows
// past the compaction threshold the whole journal is rewritten as a
// single snapshot entry (write-to-temp + rename, the same discipline the
// store's disk tier uses), and the snapshot is also mirrored into the
// content-addressed store when one with a disk tier is attached — a node
// that lost the journal file but kept its store directory still recovers.
type Journal struct {
	mu          sync.Mutex
	path        string
	f           *os.File
	appends     uint64
	compactions uint64
	corrupt     uint64 // undecodable mid-file entries skipped by replay
	pending     int    // entries in the file since the last compaction
	closed      bool

	// faults, when set, corrupts appended entries on the decode seam —
	// chaos testing's way of manufacturing the damage ReadAll must
	// tolerate. Nil in production.
	faults *fault.Injector
}

// DefaultJournalCompactEvery is the live-tail length that triggers
// compaction when Config.JournalCompactEvery is 0.
const DefaultJournalCompactEvery = 1024

// journalEntry is one line of the journal. Exactly one of the payload
// fields is set, selected by T.
type journalEntry struct {
	T        string           `json:"t"` // "program" | "job" | "snapshot"
	Program  *JournalProgram  `json:"program,omitempty"`
	Job      *JournalJob      `json:"job,omitempty"`
	Snapshot *journalSnapshot `json:"snapshot,omitempty"`
}

// JournalProgram records one source-registered program, enough to
// re-register it (and so re-open its analysis shard) on replay.
type JournalProgram struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
}

// JournalJob records one terminal job: its identity, outcome, and bucket
// membership. Report bytes are deliberately absent — for a complete job
// they live in the content-addressed store under Key; for a failed or
// partial one they were never durable to begin with.
type JournalJob struct {
	ID          string    `json:"id"`
	Program     string    `json:"program"`
	ProgramName string    `json:"program_name,omitempty"`
	Status      Status    `json:"status"`
	Partial     bool      `json:"partial,omitempty"`
	Bucket      string    `json:"bucket,omitempty"`
	Error       string    `json:"error,omitempty"`
	Mode        string    `json:"mode,omitempty"`
	Evidence    []string  `json:"evidence,omitempty"`
	Warnings    []string  `json:"warnings,omitempty"`
	Key         store.Key `json:"key"`
	FinishedAt  time.Time `json:"finished_at"`
}

// journalSnapshot is the compacted form: the full durable state as of
// compaction time, replayed as if each element had been appended.
type journalSnapshot struct {
	Programs []JournalProgram `json:"programs,omitempty"`
	Jobs     []JournalJob     `json:"jobs,omitempty"`
}

// JournalSnapshotKey addresses the snapshot mirror inside the
// content-addressed store. It is a fixed, node-local key (stores are
// per-node; the cluster layer never replicates the "journal" space and
// refuses to serve this ID over the wire — the snapshot holds program
// sources and the full job history, not a result).
func JournalSnapshotKey() store.Key { return store.Key{Space: "journal-snapshot"} }

// OpenJournal opens (creating if needed) the journal at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	// The live tail carries over across restarts: count existing entries
	// so the compaction threshold is about file length, not process age.
	entries, _ := j.ReadAll()
	j.pending = len(entries)
	return j, nil
}

// Append writes one entry and reports whether the live tail has grown
// past the compaction threshold (the caller owns compaction because only
// it can build the snapshot).
func (j *Journal) Append(e journalEntry, compactEvery int) (needCompact bool, err error) {
	if compactEvery <= 0 {
		compactEvery = DefaultJournalCompactEvery
	}
	data, err := json.Marshal(e)
	if err != nil {
		return false, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Injected corruption happens to the persisted line, after marshal
	// and before write: exactly what a bad sector does.
	data = j.faults.Corrupt(fault.SeamDecode, fault.KindJournalCorrupt, data)
	if j.closed {
		return false, fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	j.appends++
	j.pending++
	return j.pending >= compactEvery, nil
}

// ReadAll parses every entry currently in the journal. A torn final line
// (crash mid-append) ends the replay silently, but an undecodable entry
// with intact entries after it is damage, not a torn tail: it is skipped
// and counted (CorruptEntries / resd_journal_corrupt_entries_total), and
// the replay keeps going — one flipped bit mid-file must cost one entry,
// not the entire history behind it.
func (j *Journal) ReadAll() ([]journalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := os.Open(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	var out []journalEntry
	var corrupt uint64
	for i, line := range lines {
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			if i == len(lines)-1 {
				break // torn tail: the crash-mid-append case, not corruption
			}
			corrupt++
			continue
		}
		out = append(out, e)
	}
	// Set, not add: ReadAll runs more than once over the same file (open
	// counts the tail, replay parses it), and one damaged entry must read
	// as one, not one per pass. Compaction rewrites the file clean, so a
	// later pass legitimately resets the count.
	j.corrupt = corrupt
	return out, nil
}

// Compact atomically replaces the journal with a single snapshot entry.
func (j *Journal) Compact(snap journalSnapshot) error {
	data, err := json.Marshal(journalEntry{T: "snapshot", Snapshot: &snap})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	tmp := j.path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: %w", err)
	}
	// Reopen the append handle onto the new file.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f.Close()
	j.f = f
	j.pending = 1
	j.compactions++
	return nil
}

// JournalStats is a snapshot of journal activity.
type JournalStats struct {
	Appends     uint64 `json:"appends"`
	Compactions uint64 `json:"compactions"`
	// CorruptEntries counts undecodable mid-file entries skipped (and
	// lost) during replay — nonzero means the journal file took damage.
	CorruptEntries uint64 `json:"corrupt_entries,omitempty"`
}

// Stats returns the activity counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Appends: j.appends, Compactions: j.compactions, CorruptEntries: j.corrupt}
}

// SetFaults installs (or clears) the decode-seam fault injector:
// subsequently appended entries are corrupted with the armed
// probability. Chaos-testing only.
func (j *Journal) SetFaults(in *fault.Injector) {
	j.mu.Lock()
	j.faults = in
	j.mu.Unlock()
}

// Close releases the file handle; later appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// ---- Service-side journal integration ----

// journalJobRecord builds the journal form of a terminal job. Caller
// holds s.mu (or the job is terminal and no longer mutated).
func journalJobRecord(js *jobState) *JournalJob {
	return &JournalJob{
		ID:          js.job.ID,
		Program:     js.job.Program,
		ProgramName: js.job.ProgramName,
		Status:      js.job.Status,
		Partial:     js.job.Partial,
		Bucket:      js.job.Bucket,
		Error:       js.job.Error,
		Mode:        js.job.Mode,
		Evidence:    js.job.Evidence,
		Warnings:    js.job.Warnings,
		Key:         js.key,
		FinishedAt:  js.job.FinishedAt,
	}
}

// journalAppend writes one entry and runs compaction when the tail has
// grown past the threshold. Append errors are swallowed — a journal
// that stopped accepting writes (disk full, closed during shutdown)
// degrades durability, it must not fail analyses.
func (s *Service) journalAppend(e journalEntry) {
	j := s.cfg.Journal
	if j == nil || s.replaying {
		return
	}
	need, err := j.Append(e, s.cfg.JournalCompactEvery)
	if err != nil || !need {
		return
	}
	s.mu.Lock()
	snap := s.journalSnapshotLocked()
	s.mu.Unlock()
	if j.Compact(snap) == nil {
		s.mirrorSnapshot(snap)
	}
}

// mirrorSnapshot writes the compacted snapshot into the content-addressed
// store's disk tier (PutLocal: the "journal" space is node-local state and
// is never replicated to cluster peers).
func (s *Service) mirrorSnapshot(snap journalSnapshot) {
	if !s.store.Persistent() {
		return
	}
	if data, err := json.Marshal(snap); err == nil {
		s.store.PutLocal(JournalSnapshotKey(), data)
	}
}

// journalSnapshotLocked collects the full durable state: every
// source-registered program and every terminal job (live records and
// evicted store-backed records alike). Caller holds s.mu.
func (s *Service) journalSnapshotLocked() journalSnapshot {
	var snap journalSnapshot
	for _, p := range s.sources {
		snap.Programs = append(snap.Programs, p)
	}
	sort.Slice(snap.Programs, func(i, j int) bool { return snap.Programs[i].Source < snap.Programs[j].Source })
	for _, js := range s.jobs {
		if js.job.Status.Terminal() {
			snap.Jobs = append(snap.Jobs, *journalJobRecord(js))
		}
	}
	for id, rec := range s.evicted {
		snap.Jobs = append(snap.Jobs, JournalJob{
			ID: id, Program: rec.program, ProgramName: rec.programName,
			Status: StatusDone, Bucket: rec.bucket, Mode: rec.mode,
			Key: rec.key, FinishedAt: rec.finished,
		})
	}
	sort.Slice(snap.Jobs, func(i, j int) bool {
		if !snap.Jobs[i].FinishedAt.Equal(snap.Jobs[j].FinishedAt) {
			return snap.Jobs[i].FinishedAt.Before(snap.Jobs[j].FinishedAt)
		}
		return snap.Jobs[i].ID < snap.Jobs[j].ID
	})
	return snap
}

// replayJournal restores durable state at construction time. The journal
// file wins; if it is empty or missing, the snapshot mirrored into the
// store's disk tier (if any) is used instead — a node that lost the
// journal but kept its store directory still recovers its history.
func (s *Service) replayJournal() {
	s.replaying = true
	defer func() { s.replaying = false }()
	entries, err := s.cfg.Journal.ReadAll()
	if err != nil || len(entries) == 0 {
		if data, ok := s.store.GetLocal(JournalSnapshotKey()); ok {
			var snap journalSnapshot
			if json.Unmarshal(data, &snap) == nil {
				entries = []journalEntry{{T: "snapshot", Snapshot: &snap}}
			}
		}
	}
	n := 0
	for _, e := range entries {
		switch e.T {
		case "program":
			if e.Program != nil {
				s.replayProgram(*e.Program)
				n++
			}
		case "job":
			if e.Job != nil {
				s.replayJob(*e.Job)
				n++
			}
		case "snapshot":
			if e.Snapshot != nil {
				for _, p := range e.Snapshot.Programs {
					s.replayProgram(p)
					n++
				}
				for _, jj := range e.Snapshot.Jobs {
					s.replayJob(jj)
					n++
				}
			}
		}
	}
	s.mu.Lock()
	s.journalReplayed = n
	s.mu.Unlock()
}

// replayProgram re-registers one journaled program; a source that no
// longer assembles is skipped (its jobs still replay as history).
func (s *Service) replayProgram(p JournalProgram) {
	s.RegisterSource(p.Name, p.Source)
}

// replayJob restores one terminal job. A later entry for the same ID
// supersedes an earlier one (the requeue-after-partial flow journals the
// same ID twice), so any previous restoration is removed first. Complete
// jobs come back as store-backed records — their reports resolve from
// the content-addressed store exactly like records evicted by the
// MaxJobs bound; failed/canceled/partial jobs come back as bare history
// (their answers were never durable, resubmission re-analyzes).
func (s *Service) replayJob(jj JournalJob) {
	if jj.ID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.jobs[jj.ID]; ok {
		delete(s.jobs, jj.ID)
		s.removeBucketLocked(prev.job.Bucket, jj.ID)
	}
	if rec, ok := s.evicted[jj.ID]; ok {
		delete(s.evicted, jj.ID)
		s.removeBucketLocked(rec.bucket, jj.ID)
	}
	if jj.Status == StatusDone && !jj.Partial {
		s.insertEvictedLocked(jj.ID, evictedRec{
			key: jj.Key, program: jj.Program, programName: jj.ProgramName,
			bucket: jj.Bucket, mode: jj.Mode, finished: jj.FinishedAt,
		})
		s.addBucketLocked(jj.Bucket, jj.ID)
		return
	}
	done := make(chan struct{})
	close(done)
	js := &jobState{
		job: Job{
			ID: jj.ID, Program: jj.Program, ProgramName: jj.ProgramName,
			Status: jj.Status, Partial: jj.Partial, Bucket: jj.Bucket,
			Error: jj.Error, Mode: jj.Mode, Evidence: jj.Evidence,
			Warnings: jj.Warnings, FinishedAt: jj.FinishedAt,
		},
		key:  jj.Key,
		done: done,
	}
	s.jobs[jj.ID] = js
	if jj.Status == StatusDone {
		s.addBucketLocked(jj.Bucket, jj.ID)
	}
	s.recordDoneLocked(js)
}
