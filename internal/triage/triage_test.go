package triage_test

import (
	"context"
	"fmt"
	"testing"

	"res"
	"res/internal/coredump"
	"res/internal/triage"
	"res/internal/workload"
)

// buildCorpus generates several dumps per bug by varying scheduler seeds,
// like reports arriving from many deployments.
func buildCorpus(t *testing.T, bugs []*workload.Bug, perBug int) []triage.Item {
	t.Helper()
	var corpus []triage.Item
	for _, bug := range bugs {
		p := bug.Program()
		found := 0
		// Spread the quota across configs so every manifestation variant
		// (e.g. both crash sites of a multi-site bug) is represented.
		quota := (perBug + len(bug.Configs) - 1) / len(bug.Configs)
		for _, base := range bug.Configs {
			got := 0
			for s := int64(0); s < 200 && got < quota && found < perBug; s++ {
				cfg := base
				cfg.Seed = s
				d, err := res.Run(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d == nil || d.Fault.Kind == coredump.FaultBudget {
					continue
				}
				if bug.WantFault != coredump.FaultNone && d.Fault.Kind != bug.WantFault {
					continue
				}
				corpus = append(corpus, triage.Item{Label: bug.Name, App: bug.AppName(), Dump: d, Prog: p})
				found++
				got++
			}
		}
		if found == 0 {
			t.Fatalf("bug %s never manifested", bug.Name)
		}
	}
	return corpus
}

// resClassifier buckets by RES root-cause key.
func resClassifier() triage.Classifier {
	return func(it triage.Item) (string, error) {
		r, err := res.NewAnalyzer(it.Prog, res.WithMaxDepth(14), res.WithMaxNodes(3000)).Analyze(context.Background(), it.Dump)
		if err != nil {
			return "", err
		}
		if r.Cause == nil {
			return "", fmt.Errorf("no cause")
		}
		return it.App + "|" + r.Cause.Key(), nil
	}
}

func TestStackBucketingSplitsOneBug(t *testing.T) {
	// MultiSiteRace is ONE bug; WER-style bucketing spreads it over
	// multiple buckets because the crash stacks differ.
	corpus := buildCorpus(t, []*workload.Bug{workload.MultiSiteRace()}, 6)
	stacks := make(map[string]bool)
	cls := triage.StackClassifier()
	for _, it := range corpus {
		k, err := cls(it)
		if err != nil {
			t.Fatal(err)
		}
		stacks[k] = true
	}
	if len(stacks) < 2 {
		t.Fatalf("expected the single bug to oversplit across stacks, got %d bucket(s)", len(stacks))
	}
}

func TestStackBucketingCollidesTwoBugs(t *testing.T) {
	// Two different bugs crash at the same site with the same stack: WER
	// merges them into one bucket.
	race, direct := workload.SharedSiteCorpus()
	corpus := buildCorpus(t, []*workload.Bug{race, direct}, 3)
	cls := triage.StackClassifier()
	keys := make(map[string]map[string]bool)
	for _, it := range corpus {
		k, err := cls(it)
		if err != nil {
			t.Fatal(err)
		}
		if keys[k] == nil {
			keys[k] = make(map[string]bool)
		}
		keys[k][it.Label] = true
	}
	collided := false
	for _, labels := range keys {
		if len(labels) > 1 {
			collided = true
		}
	}
	if !collided {
		t.Fatalf("expected a bucket collision; buckets: %v", keys)
	}
}

func TestRootCauseBucketingBeatsStacks(t *testing.T) {
	// The E5 comparison on a reduced corpus: RES bucketing must score a
	// strictly better F1 than stack bucketing.
	race, direct := workload.SharedSiteCorpus()
	bugs := []*workload.Bug{workload.MultiSiteRace(), race, direct}
	corpus := buildCorpus(t, bugs, 3)

	wer := triage.Evaluate(corpus, triage.StackClassifier())
	resEv := triage.Evaluate(corpus, resClassifier())
	t.Logf("WER-style: %v", wer)
	t.Logf("RES:       %v", resEv)

	if resEv.F1 <= wer.F1 {
		t.Errorf("RES bucketing (F1=%.2f) does not beat stack bucketing (F1=%.2f)", resEv.F1, wer.F1)
	}
	if resEv.Errors > 0 {
		t.Errorf("RES classifier errors: %d", resEv.Errors)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	// Hand-built corpus exercising the metric arithmetic: two bugs, three
	// reports, classifier merges everything into one bucket.
	items := []triage.Item{
		{Label: "A"}, {Label: "A"}, {Label: "B"},
	}
	all := func(triage.Item) (string, error) { return "one", nil }
	ev := triage.Evaluate(items, all)
	if ev.Buckets != 1 || ev.Collisions != 1 || ev.OverSplit != 0 {
		t.Errorf("ev = %+v", ev)
	}
	// Pairs: (A,A) tp; (A,B) fp ×2. precision = 1/3, recall = 1.
	if ev.Precision < 0.32 || ev.Precision > 0.34 || ev.Recall != 1 {
		t.Errorf("precision=%v recall=%v", ev.Precision, ev.Recall)
	}

	// Perfect classifier.
	perfect := func(it triage.Item) (string, error) { return it.Label, nil }
	ev = triage.Evaluate(items, perfect)
	if ev.F1 != 1 || ev.Collisions != 0 || ev.OverSplit != 0 {
		t.Errorf("perfect ev = %+v", ev)
	}
}

func TestHeuristicSeverity(t *testing.T) {
	// !exploitable-style: write crashes rate exploitable even when the
	// address is not attacker-controlled; asserts rate low even when they
	// guard attacker-reachable state. Both misratings are inherent to
	// looking only at the crash.
	tainted := workload.TaintedOverflow()
	d, _, err := tainted.FindFailure(4)
	if err != nil {
		t.Fatal(err)
	}
	sev := triage.HeuristicSeverity(tainted.Program(), d)
	if sev != triage.SeverityExploitable {
		t.Errorf("tainted overflow heuristic = %v, want exploitable", sev)
	}

	benign := workload.UntaintedCrash()
	d2, _, err := benign.FindFailure(4)
	if err != nil {
		t.Fatal(err)
	}
	sev = triage.HeuristicSeverity(benign.Program(), d2)
	// The heuristic rates this read crash "probable" — a false positive
	// relative to the taint ground truth (not attacker-controlled).
	if sev != triage.SeverityProbable {
		t.Errorf("benign read crash heuristic = %v, want probably-exploitable (the heuristic's false positive)", sev)
	}
}
