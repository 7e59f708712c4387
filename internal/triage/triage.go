// Package triage implements §3.1's bug-report bucketing comparison: the
// WER-style baseline that buckets crash reports by failure point and call
// stack, the !exploitable-style heuristic severity classifier, and the
// metrics that compare any bucketing against ground truth.
//
// The RES-based bucketing (by root-cause key) is wired in by the caller —
// typically a closure over res.Analyze — so this package stays independent
// of the analysis engine.
package triage

import (
	"fmt"
	"math"
	"sort"

	"res/internal/coredump"
	"res/internal/prog"
)

// Item is one bug report: a coredump with its (experiment-only) ground
// truth label.
type Item struct {
	Label string // ground truth: which bug produced this dump
	// App identifies the reporting application; buckets are scoped per
	// App, as in WER (reports from different programs never merge).
	App  string
	Dump *coredump.Dump
	Prog *prog.Program
	// Evidence is the report's optional evidence attachment (canonical
	// evidence wire bytes); classifiers that analyze may use it to prune.
	Evidence []byte
}

// Classifier assigns a bucket key to a report.
type Classifier func(it Item) (string, error)

// StackClassifier is the WER-style baseline: bucket by fault kind plus the
// reconstructed call stack. It is cheap and purely post-mortem, and
// exhibits exactly the failure modes the paper describes — one bug
// spreading over many buckets (different crash sites), different bugs
// colliding in one bucket (same crash site).
func StackClassifier() Classifier {
	return func(it Item) (string, error) {
		tid := it.Dump.Fault.Thread
		if tid < 0 {
			return it.App + "|global|" + it.Dump.Fault.Kind.String(), nil
		}
		frames, err := it.Dump.Walk(it.Prog, tid)
		if err != nil {
			return "", err
		}
		return it.App + "|" + coredump.StackKey(it.Dump.Fault, frames), nil
	}
}

// Severity is the !exploitable-style rating.
type Severity uint8

const (
	SeverityUnknown Severity = iota
	SeverityLow
	SeverityProbable
	SeverityExploitable
)

func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "low"
	case SeverityProbable:
		return "probably-exploitable"
	case SeverityExploitable:
		return "exploitable"
	}
	return "unknown"
}

// HeuristicSeverity mimics !exploitable: it looks only at the crash type
// and faulting instruction, with no knowledge of where the data came from.
// Writes to bad addresses rate exploitable, reads rate probable, division
// and asserts rate low. This over- and under-approximates — which is the
// paper's criticism and what the taint-based verdict fixes.
func HeuristicSeverity(p *prog.Program, d *coredump.Dump) Severity {
	switch d.Fault.Kind {
	case coredump.FaultAssert, coredump.FaultDivByZero, coredump.FaultDeadlock, coredump.FaultBudget:
		return SeverityLow
	case coredump.FaultNullDeref, coredump.FaultOOB, coredump.FaultHeapOOB, coredump.FaultUseAfterFree:
		if d.Fault.PC >= 0 && d.Fault.PC < len(p.Code) && p.Code[d.Fault.PC].WritesMem() {
			return SeverityExploitable
		}
		return SeverityProbable
	case coredump.FaultStackOverflow, coredump.FaultDoubleFree, coredump.FaultBadFree:
		return SeverityProbable
	}
	return SeverityUnknown
}

// Evaluation quantifies how well a bucketing matches ground truth.
type Evaluation struct {
	Items   int
	Buckets int
	// Pairwise clustering metrics over all report pairs: a pair is
	// positive when both reports come from the same bug. A score whose
	// denominator is zero is undefined and holds NaN, which String
	// prints as n/a: precision when no pair shares a bucket, recall when
	// no pair shares a bug, and F1 when neither holds (a corpus of one
	// report, or of distinct bugs in distinct buckets).
	Precision, Recall, F1 float64
	// OverSplit counts bugs spread across more than one bucket (the
	// "same exploit, many buckets" failure of §3.1).
	OverSplit int
	// Collisions counts buckets containing more than one bug ("different
	// bugs, same bucket").
	Collisions int
	// Errors counts reports the classifier failed on.
	Errors int
}

func (e Evaluation) String() string {
	return fmt.Sprintf("items=%d buckets=%d precision=%s recall=%s f1=%s oversplit=%d collisions=%d",
		e.Items, e.Buckets, score(e.Precision), score(e.Recall), score(e.F1), e.OverSplit, e.Collisions)
}

// score formats a pairwise score: two decimals, or n/a when undefined.
func score(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// ratio is num/den, or NaN (undefined) when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// Evaluate buckets the corpus with the classifier and scores the result.
func Evaluate(corpus []Item, classify Classifier) Evaluation {
	ev := Evaluation{Items: len(corpus)}
	buckets := make(map[string][]int)
	keys := make([]string, len(corpus))
	for i, it := range corpus {
		k, err := classify(it)
		if err != nil {
			ev.Errors++
			k = fmt.Sprintf("error-%d", i)
		}
		keys[i] = k
		buckets[k] = append(buckets[k], i)
	}
	ev.Buckets = len(buckets)

	// Pairwise precision/recall.
	var tp, fp, fn float64
	for i := 0; i < len(corpus); i++ {
		for j := i + 1; j < len(corpus); j++ {
			sameBug := corpus[i].Label == corpus[j].Label
			sameBucket := keys[i] == keys[j]
			switch {
			case sameBug && sameBucket:
				tp++
			case !sameBug && sameBucket:
				fp++
			case sameBug && !sameBucket:
				fn++
			}
		}
	}
	// F1 is the harmonic mean of precision and recall, in the form that
	// stays defined when only one of them is.
	ev.Precision = ratio(tp, tp+fp)
	ev.Recall = ratio(tp, tp+fn)
	ev.F1 = ratio(2*tp, 2*tp+fp+fn)

	// Over-splits and collisions.
	bugBuckets := make(map[string]map[string]bool)
	for i, it := range corpus {
		if bugBuckets[it.Label] == nil {
			bugBuckets[it.Label] = make(map[string]bool)
		}
		bugBuckets[it.Label][keys[i]] = true
	}
	for _, bs := range bugBuckets {
		if len(bs) > 1 {
			ev.OverSplit++
		}
	}
	for _, members := range buckets {
		labels := make(map[string]bool)
		for _, i := range members {
			labels[corpus[i].Label] = true
		}
		if len(labels) > 1 {
			ev.Collisions++
		}
	}
	return ev
}

// BucketSummary renders the bucket composition for reports/debugging.
func BucketSummary(corpus []Item, classify Classifier) string {
	buckets := make(map[string][]string)
	for _, it := range corpus {
		k, err := classify(it)
		if err != nil {
			k = "error"
		}
		buckets[k] = append(buckets[k], it.Label)
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%-40s %v\n", k, buckets[k])
	}
	return out
}
