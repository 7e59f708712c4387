package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"res/internal/fault"
	"res/internal/workload"
)

// TestJournalSkipsCorruptMiddleEntries is the bit-flipped-middle
// regression: one damaged entry mid-file costs exactly that entry, not
// the history behind it, and the damage is counted. A torn final line
// (crash mid-append) still ends replay silently.
func TestJournalSkipsCorruptMiddleEntries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e := journalEntry{T: "program", Program: &JournalProgram{
			Name:   "p",
			Source: "nop\nhalt\n",
		}}
		if _, err := j.Append(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Damage the file the way a bad sector does: clobber a middle line
	// (same length, so it stays one line) and tear the tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 6 {
		t.Fatalf("journal has %d lines, want 6", len(lines))
	}
	lines[2] = bytes.Repeat([]byte("x"), len(lines[2]))
	damaged := append(bytes.Join(lines, []byte("\n")), '\n')
	damaged = append(damaged, []byte(`{"t":"progr`)...) // torn tail, no newline
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	entries, err := reopened.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("replayed %d entries, want 5 (6 minus the corrupt one; torn tail silent)", len(entries))
	}
	if st := reopened.Stats(); st.CorruptEntries != 1 {
		t.Fatalf("CorruptEntries = %d, want 1", st.CorruptEntries)
	}

	// End to end: a service over the damaged journal replays the
	// survivors and surfaces the damage in its metrics.
	svc := New(Config{Analysis: AnalysisConfig{MaxDepth: 8, MaxNodes: 500}, Journal: reopened})
	defer svc.Shutdown(context.Background())
	m := metrics(t, svc)
	if v := m("resd_journal_corrupt_entries_total"); v != 1 {
		t.Fatalf("resd_journal_corrupt_entries_total = %v, want 1", v)
	}
	if v := m("resd_journal_replayed"); v != 5 {
		t.Fatalf("resd_journal_replayed = %v, want 5", v)
	}
}

// TestJournalFaultSeamCorruptsPersistedLine: the decode-seam injector
// damages the line on disk — what ReadAll later sees — not the entry the
// caller handed in.
func TestJournalFaultSeamCorruptsPersistedLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetFaults(fault.New(7, fault.Rule{
		Seam: fault.SeamDecode, Kind: fault.KindJournalCorrupt, P: 1,
	}))
	e := journalEntry{T: "program", Program: &JournalProgram{Source: "nop\nhalt\n"}}
	if _, err := j.Append(e, 0); err != nil {
		t.Fatal(err)
	}
	j.SetFaults(nil)
	if _, err := j.Append(e, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(lines))
	}
	if bytes.Equal(lines[0], lines[1]) {
		t.Fatal("injected corruption left the persisted line pristine")
	}
}

// TestJitterDelayBounds: jittered retry delays stay inside [d/2, d) —
// never zero, never past the un-jittered backoff.
func TestJitterDelayBounds(t *testing.T) {
	d := 800 * time.Millisecond
	for i := 0; i < 1000; i++ {
		got := jitterDelay(d)
		if got < d/2 || got >= d {
			t.Fatalf("jitterDelay(%v) = %v, want in [%v, %v)", d, got, d/2, d)
		}
	}
	if got := jitterDelay(0); got != 0 {
		t.Fatalf("jitterDelay(0) = %v, want 0", got)
	}
}

// TestSolverStallHonorsJobTimeout: an injected solver stall longer than
// the job timeout must not wedge the worker — the job finishes (the
// search runs under an already-expired context and fails or degrades),
// and the service still drains promptly.
func TestSolverStallHonorsJobTimeout(t *testing.T) {
	bug := workload.RaceCounter()
	svc := New(Config{
		ShardWorkers: 1,
		Analysis:     AnalysisConfig{MaxDepth: 12, MaxNodes: 2000},
		JobTimeout:   150 * time.Millisecond,
		Faults: fault.New(3, fault.Rule{
			Seam: fault.SeamSolver, Kind: fault.KindStall, P: 1, Delay: 10 * time.Second,
		}),
	})
	progID, err := svc.RegisterProgram(bug.Name, bug.Program())
	if err != nil {
		t.Fatal(err)
	}
	dump := failingDumps(t, bug, 1)[0]
	job, err := svc.Submit(SubmitRequest{ProgramID: progID, Dump: dump})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done, err := svc.Wait(ctx, job.ID)
	if err != nil {
		t.Fatalf("stalled job never terminalized: %v", err)
	}
	if !done.Status.Terminal() {
		t.Fatalf("job status %v, want terminal", done.Status)
	}
	if err := svc.Shutdown(ctx); err != nil && !strings.Contains(err.Error(), "drain") {
		t.Fatal(err)
	}
}
