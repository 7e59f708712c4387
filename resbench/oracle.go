package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"res"
	"res/internal/rootcause"
)

// Failure reasons counted per run. A miss never aborts a run: it is
// counted under its reason, and the run goes on.
const (
	failError      = "error"           // the call returned an error
	failRefused    = "refused"         // queue full (429) or draining (503)
	failPartial    = "partial"         // the analysis came back partial
	failKind       = "wrong-kind"      // cause kind or racy address differs from ground truth
	failReplay     = "replay-mismatch" // the forward replay does not reproduce the dump
	failDiffers    = "report-differs"  // a resubmission's report is not byte-identical to the first answer
	failKeyChanged = "key-changed"     // the traced run reached another cause key than the untraced one
)

// wrongAnswer reports whether a failure reason means an incorrect output
// (as opposed to an operation that did not complete).
func wrongAnswer(reason string) bool {
	switch reason {
	case failKind, failReplay, failDiffers, failKeyChanged:
		return true
	}
	return false
}

// tally counts attempted and failed operations with a count per reason.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int
}

func (t *tally) add(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// correct is true when no operation produced a wrong answer.
func (t *tally) correct() bool {
	for r := range t.reasons {
		if wrongAnswer(r) {
			return false
		}
	}
	return true
}

func (t *tally) String() string {
	keys := make([]string, 0, len(t.reasons))
	for k := range t.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, t.reasons[k])
	}
	return fmt.Sprintf("attempted=%d failed=%d [%s]", t.attempted, t.failed, strings.Join(parts, " "))
}

// checkCause applies the ground truth to a cause: its kind must be one
// the workload's hand-written truth accepts, and for the concurrency
// bugs it must name the racy global.
func checkCause(want expect, kind rootcause.Kind, addr uint32) string {
	if !slices.Contains(want.kinds, kind) {
		return failKind
	}
	if want.addr != 0 && addr != want.addr {
		return failKind
	}
	return ""
}

// checkResult is the oracle for a library result.
func checkResult(want expect, r *res.Result, err error) string {
	switch {
	case err != nil:
		return failError
	case r.Partial:
		return failPartial
	case r.Cause == nil:
		return failKind
	}
	if reason := checkCause(want, r.Cause.Kind, r.Cause.Addr); reason != "" {
		return reason
	}
	if r.Replay == nil || !r.Replay.Matches {
		return failReplay
	}
	return ""
}

// report is the part of a daemon's JSON report the oracle reads.
type report struct {
	Partial bool `json:"partial"`
	Cause   *struct {
		Kind string `json:"kind"`
		Addr uint32 `json:"addr"`
		Key  string `json:"key"`
	} `json:"cause"`
	ReplayMatches bool `json:"replay_matches"`
	Stats         struct {
		Attempts int `json:"attempts"`
		Feasible int `json:"feasible"`
		MaxDepth int `json:"max_depth"`
	} `json:"stats"`
}

// checkReport is the oracle for a daemon report; it also returns the
// parsed report for the caller's bookkeeping.
func checkReport(want expect, raw []byte) (report, string) {
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, failError
	}
	if rep.Partial {
		return rep, failPartial
	}
	if rep.Cause == nil {
		return rep, failKind
	}
	kind, ok := kindByName[rep.Cause.Kind]
	if !ok {
		return rep, failKind
	}
	if reason := checkCause(want, kind, rep.Cause.Addr); reason != "" {
		return rep, reason
	}
	if !rep.ReplayMatches {
		return rep, failReplay
	}
	return rep, ""
}

// kindByName inverts rootcause.Kind's String for the kinds the
// workloads' ground truth can name.
var kindByName = func() map[string]rootcause.Kind {
	m := map[string]rootcause.Kind{}
	for k := rootcause.Kind(0); k < 64; k++ {
		if s := k.String(); !strings.HasPrefix(s, "kind(") {
			if _, dup := m[s]; !dup {
				m[s] = k
			}
		}
	}
	return m
}()
