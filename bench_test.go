// Benchmark harness: one benchmark per experiment in EXPERIMENTS.md
// (E1..E9), regenerating every figure/table of the paper's evaluation and
// every quantified claim in its text, plus the engine-scaling benchmarks
// the performance work is held to:
//
//   - BenchmarkDeepSuffix sweeps the depth budget on a long linear
//     reconstruction and reports step-ns/op, the mean cost of one
//     backward step (BackExec + incremental solve + COW clone) over the
//     whole run. With the incremental solver sessions and copy-on-write
//     snapshots this stays ~flat as depth grows (the depth-24 mean within
//     2x of the depth-4 mean); the pre-incremental engine grew it
//     superlinearly because every step re-solved and re-copied the full
//     accumulated history.
//   - BenchmarkParallelSearch runs a wide multi-candidate search at
//     candidate-level parallelism 1 vs 2 vs 4 (res.WithSearchParallelism).
//     Results are bit-identical at any parallelism (see
//     TestSearchEquivalenceParallelVsSequential); only ns/op moves, and
//     the speedup ceiling is the reported cores metric.
//
// Custom metrics carry the series the paper reports:
//
//	attempts/op      backward-step attempts (RES search effort)
//	states/op        forward-synthesis states explored (baseline effort)
//	depth/op         suffix length at which the root cause was found
//	found/op         1 when the analysis succeeded
//	f1/op            pairwise bucketing F1 (triage)
//	detected/op      hardware-error detection rate
//	falsepos/op      false-positive rate
//	step-ns/op       mean wall-clock cost of one backward-step attempt
//
// Run with: go test -bench=. -benchmem
package res_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"res"
	"res/internal/breadcrumb"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/hwerr"
	"res/internal/obs"
	"res/internal/prog"
	"res/internal/rootcause"
	"res/internal/service"
	"res/internal/solver"
	"res/internal/synth"
	"res/internal/taint"
	"res/internal/triage"
	"res/internal/vm"
	"res/internal/workload"
)

// mustFail produces the bug's dump once (outside timed sections).
func mustFail(b *testing.B, bug *workload.Bug, seeds int) *coredump.Dump {
	b.Helper()
	d, _, err := bug.FindFailure(seeds)
	if err != nil {
		b.Fatalf("%s: %v", bug.Name, err)
	}
	return d
}

// BenchmarkE1Figure1 reproduces Figure 1: predecessor disambiguation plus
// root-cause pinpointing for the buffer overflow.
func BenchmarkE1Figure1(b *testing.B) {
	bug := workload.Fig1()
	p := bug.Program()
	d := mustFail(b, bug, 4)
	var attempts, infeasible, correct int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := res.NewAnalyzer(p, res.WithMaxDepth(12)).Analyze(context.Background(), d)
		if err != nil {
			b.Fatal(err)
		}
		attempts += r.Report.Stats.Attempts
		infeasible += r.Report.Stats.Infeasible
		if r.Cause != nil && r.Cause.Kind == rootcause.BufferOverflow {
			correct++
		}
	}
	b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
	b.ReportMetric(float64(infeasible)/float64(b.N), "infeasible/op")
	b.ReportMetric(float64(correct)/float64(b.N), "correct/op")
}

// BenchmarkE2ConcurrencyBugs reproduces the §4 evaluation: the three
// synthetic concurrency bugs, root cause identified, no false positives,
// well under the paper's one-minute bound (the ns/op column IS the
// time-to-root-cause).
func BenchmarkE2ConcurrencyBugs(b *testing.B) {
	for _, bug := range workload.ConcurrencyBugs() {
		bug := bug
		b.Run(bug.Name, func(b *testing.B) {
			p := bug.Program()
			d := mustFail(b, bug, 50)
			racy, err := p.GlobalAddr(bug.RacyGlobal)
			if err != nil {
				b.Fatal(err)
			}
			var correct, faithful, depth int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := res.NewAnalyzer(p, res.WithMaxDepth(16), res.WithMaxNodes(4000)).Analyze(context.Background(), d)
				if err != nil {
					b.Fatal(err)
				}
				if r.Cause != nil &&
					(r.Cause.Kind == rootcause.DataRace || r.Cause.Kind == rootcause.AtomicityViolation) &&
					r.Cause.Addr == racy {
					correct++
				}
				if r.Replay != nil && r.Replay.Matches {
					faithful++
				}
				depth += r.CauseDepth
			}
			b.ReportMetric(float64(correct)/float64(b.N), "correct/op")
			b.ReportMetric(float64(faithful)/float64(b.N), "faithful/op")
			b.ReportMetric(float64(depth)/float64(b.N), "depth/op")
		})
	}
}

// BenchmarkE3ArbitraryLength is the headline claim: RES effort is flat in
// execution length, forward synthesis explodes. Sub-benchmarks sweep the
// benign prefix length.
func BenchmarkE3ArbitraryLength(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("res-prefix-%d", n), func(b *testing.B) {
			bug := workload.LongPrefix(n)
			p := bug.Program()
			d := mustFail(b, bug, 2)
			var attempts, found int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := res.NewAnalyzer(p, res.WithMaxDepth(8), res.WithMaxNodes(2000)).Analyze(context.Background(), d)
				if err != nil {
					b.Fatal(err)
				}
				attempts += r.Report.Stats.Attempts
				if r.Cause != nil {
					found++
				}
			}
			b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
			b.ReportMetric(float64(found)/float64(b.N), "found/op")
			b.ReportMetric(float64(d.Steps), "execblocks")
		})
	}
	for _, n := range []int{30, 100, 300, 1000} {
		n := n
		b.Run(fmt.Sprintf("forward-prefix-%d", n), func(b *testing.B) {
			bug := workload.LongPrefix(n)
			p := bug.Program()
			d := mustFail(b, bug, 2)
			var states, found int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := synth.Synthesize(p, d, synth.Options{MaxStates: 3000, MatchGlobals: false})
				states += r.StatesExplored
				if r.Found {
					found++
				}
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
			b.ReportMetric(float64(found)/float64(b.N), "found/op")
			b.ReportMetric(float64(d.Steps), "execblocks")
		})
	}
}

// BenchmarkE4SuffixDepth sweeps the root-cause distance (§2's enabler and
// §6's limiting factor): effort vs how far the cause sits from the
// failure.
func BenchmarkE4SuffixDepth(b *testing.B) {
	for _, dist := range []int{1, 2, 4, 8, 16, 32} {
		dist := dist
		b.Run(fmt.Sprintf("distance-%d", dist), func(b *testing.B) {
			bug := workload.DistanceChain(dist)
			p := bug.Program()
			d := mustFail(b, bug, 2)
			var attempts, reached int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.New(p, core.Options{MaxDepth: dist + 4, MaxNodes: 10000})
				rep, err := eng.Analyze(d)
				if err != nil {
					b.Fatal(err)
				}
				attempts += rep.Stats.Attempts
				// The root cause (the input write) is reached when the
				// search unwinds to the entry block.
				if rep.FullReconstruction != nil || rep.Stats.MaxDepth >= dist+1 {
					reached++
				}
			}
			b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
			b.ReportMetric(float64(reached)/float64(b.N), "reached/op")
		})
	}
}

// buildTriageCorpus generates the E5 report corpus (outside timing).
func buildTriageCorpus(b *testing.B, perBug int) []triage.Item {
	b.Helper()
	race, direct := workload.SharedSiteCorpus()
	bugs := []*workload.Bug{workload.MultiSiteRace(), race, direct, workload.RaceCounter(), workload.AtomViolation()}
	var corpus []triage.Item
	for _, bug := range bugs {
		p := bug.Program()
		quota := (perBug + len(bug.Configs) - 1) / len(bug.Configs)
		found := 0
		for _, base := range bug.Configs {
			got := 0
			for s := int64(0); s < 300 && got < quota && found < perBug; s++ {
				cfg := base
				cfg.Seed = s
				d, err := res.Run(p, cfg)
				if err != nil {
					b.Fatal(err)
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
			b.Fatalf("bug %s never manifested", bug.Name)
		}
	}
	return corpus
}

// BenchmarkE5Triage compares WER-style stack bucketing against RES
// root-cause bucketing on the report corpus (§3.1; WER mis-buckets up to
// 37% of reports — here measured as pairwise F1 plus over-splits and
// collisions).
func BenchmarkE5Triage(b *testing.B) {
	corpus := buildTriageCorpus(b, 4)
	rcClassifier := func(it triage.Item) (string, error) {
		r, err := res.NewAnalyzer(it.Prog, res.WithMaxDepth(14), res.WithMaxNodes(3000)).Analyze(context.Background(), it.Dump)
		if err != nil {
			return "", err
		}
		if r.Cause == nil {
			return "", fmt.Errorf("no cause")
		}
		return it.App + "|" + r.Cause.Key(), nil
	}
	b.Run("wer-stack", func(b *testing.B) {
		var ev triage.Evaluation
		for i := 0; i < b.N; i++ {
			ev = triage.Evaluate(corpus, triage.StackClassifier())
		}
		b.ReportMetric(ev.F1, "f1/op")
		b.ReportMetric(float64(ev.OverSplit), "oversplit/op")
		b.ReportMetric(float64(ev.Collisions), "collisions/op")
		b.ReportMetric(float64(ev.Buckets), "buckets/op")
	})
	b.Run("res-rootcause", func(b *testing.B) {
		var ev triage.Evaluation
		for i := 0; i < b.N; i++ {
			ev = triage.Evaluate(corpus, rcClassifier)
		}
		b.ReportMetric(ev.F1, "f1/op")
		b.ReportMetric(float64(ev.OverSplit), "oversplit/op")
		b.ReportMetric(float64(ev.Collisions), "collisions/op")
		b.ReportMetric(float64(ev.Buckets), "buckets/op")
	})
}

// BenchmarkE6HardwareErrors measures §3.2: detection rate over injected
// memory/register corruption, and the false-positive rate over genuine
// software-bug dumps.
func BenchmarkE6HardwareErrors(b *testing.B) {
	bug := workload.HealthyCompute()
	p := bug.Program()
	clean := mustFail(b, bug, 2)
	g, _ := p.GlobalAddr("g")
	h, _ := p.GlobalAddr("h")

	type caseT struct {
		name string
		dump *coredump.Dump
		want bool // hardware?
	}
	var cases []caseT
	for bit := uint(0); bit < 8; bit++ {
		cd, _ := hwerr.FlipMemoryBit(clean, g, bit)
		cases = append(cases, caseT{fmt.Sprintf("memflip-g-%d", bit), cd, true})
		cd2, _ := hwerr.FlipMemoryBit(clean, h, bit)
		cases = append(cases, caseT{fmt.Sprintf("memflip-h-%d", bit), cd2, true})
	}
	for bit := uint(0); bit < 4; bit++ {
		cd, _, err := hwerr.FlipRegisterBit(clean, clean.Fault.Thread, 3, bit)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, caseT{fmt.Sprintf("regflip-%d", bit), cd, true})
	}
	cases = append(cases, caseT{"genuine-assert", clean, false})
	race := workload.AtomViolation()
	cases = append(cases, caseT{"genuine-race", mustFail(b, race, 50), false})
	progOf := func(name string) *prog.Program {
		if name == "genuine-race" {
			return race.Program()
		}
		return p
	}

	b.ResetTimer()
	var detected, falsePos, total, cleanTotal float64
	for i := 0; i < b.N; i++ {
		detected, falsePos, total, cleanTotal = 0, 0, 0, 0
		for _, c := range cases {
			v, err := hwerr.Classify(progOf(c.name), c.dump, core.Options{MaxDepth: 8, MaxNodes: 2000})
			if err != nil {
				b.Fatal(err)
			}
			if c.want {
				total++
				if v.HardwareSuspect {
					detected++
				}
			} else {
				cleanTotal++
				if v.HardwareSuspect {
					falsePos++
				}
			}
		}
	}
	b.ReportMetric(detected/total, "detected/op")
	b.ReportMetric(falsePos/cleanTotal, "falsepos/op")
	b.ReportMetric(total+cleanTotal, "cases")
}

// BenchmarkE7Breadcrumbs sweeps the LBR ring size and the filtered-LBR
// extension (§2.4): search effort with breadcrumb pruning.
func BenchmarkE7Breadcrumbs(b *testing.B) {
	mkDump := func(size int, skipCond bool) (*prog.Program, *coredump.Dump) {
		bug := workload.AmbiguousDispatch(10)
		p := bug.Program()
		cfg := bug.Configs[0]
		cfg.LBRSize = size
		cfg.LBRSkipConditional = skipCond
		v, err := vm.New(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		d, err := v.Run()
		if err != nil || d == nil {
			b.Fatalf("no dump: %v %v", d, err)
		}
		return p, d
	}
	for _, k := range []int{-1, 4, 8, 16, 32} {
		k := k
		name := fmt.Sprintf("lbr-%d", k)
		if k == -1 {
			name = "no-lbr"
		}
		b.Run(name, func(b *testing.B) {
			p, d := mkDump(k, false)
			opt := core.Options{MaxDepth: 34, MaxNodes: 10000}
			if k > 0 {
				prs, err := evidence.Set{evidence.LBR{Mode: breadcrumb.RecordAll}}.Compile(p, d)
				if err != nil {
					b.Fatal(err)
				}
				opt.Evidence = prs
			}
			var attempts, depth int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.New(p, opt)
				rep, err := eng.Analyze(d)
				if err != nil {
					b.Fatal(err)
				}
				attempts += rep.Stats.Attempts
				depth += rep.Stats.MaxDepth
			}
			b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
			b.ReportMetric(float64(depth)/float64(b.N), "depth/op")
		})
	}
	b.Run("lbr-16-filtered", func(b *testing.B) {
		p, d := mkDump(16, true)
		prs, err := evidence.Set{evidence.LBR{Mode: breadcrumb.SkipConditional}}.Compile(p, d)
		if err != nil {
			b.Fatal(err)
		}
		opt := core.Options{
			MaxDepth: 34, MaxNodes: 10000,
			Evidence: prs,
		}
		var attempts, depth int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := core.New(p, opt)
			rep, err := eng.Analyze(d)
			if err != nil {
				b.Fatal(err)
			}
			attempts += rep.Stats.Attempts
			depth += rep.Stats.MaxDepth
		}
		b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
		b.ReportMetric(float64(depth)/float64(b.N), "depth/op")
	})
}

// BenchmarkE8Exploitability compares the taint-based verdict against the
// !exploitable-style heuristic on crashes with known controllability.
func BenchmarkE8Exploitability(b *testing.B) {
	type caseT struct {
		bug         *workload.Bug
		exploitable bool
	}
	cases := []caseT{
		{workload.TaintedOverflow(), true},
		{workload.UntaintedCrash(), false},
	}
	type prepared struct {
		caseT
		p    *prog.Program
		dump *coredump.Dump
	}
	var prep []prepared
	for _, c := range cases {
		prep = append(prep, prepared{c, c.bug.Program(), mustFail(b, c.bug, 4)})
	}
	b.ResetTimer()
	var taintCorrect, heurCorrect float64
	for i := 0; i < b.N; i++ {
		taintCorrect, heurCorrect = 0, 0
		for _, c := range prep {
			r, err := res.NewAnalyzer(c.p, res.WithMaxDepth(10)).Analyze(context.Background(), c.dump)
			if err != nil {
				b.Fatal(err)
			}
			tExp := r.Exploitability != nil && r.Exploitability.Exploitable
			if tExp == c.exploitable {
				taintCorrect++
			}
			hExp := triage.HeuristicSeverity(c.p, c.dump) >= triage.SeverityProbable
			if hExp == c.exploitable {
				heurCorrect++
			}
		}
	}
	b.ReportMetric(taintCorrect/float64(len(prep)), "taint-acc/op")
	b.ReportMetric(heurCorrect/float64(len(prep)), "heuristic-acc/op")
}

// BenchmarkE9HashConstruct measures §6: a non-invertible hash between the
// input and the failure. With the input spilled to memory RES re-executes
// the hash concretely and crosses it; without the spill the construct is
// an honest Unknown wall.
func BenchmarkE9HashConstruct(b *testing.B) {
	for _, spill := range []bool{true, false} {
		spill := spill
		name := "spilled-input"
		if !spill {
			name = "no-spill"
		}
		b.Run(name, func(b *testing.B) {
			bug := workload.HashConstruct(spill)
			p := bug.Program()
			d := mustFail(b, bug, 2)
			var crossed, unknowns int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.New(p, core.Options{MaxDepth: 8, Solver: solver.Options{RandomTries: 64}})
				rep, err := eng.Analyze(d)
				if err != nil {
					b.Fatal(err)
				}
				// Crossing the hash means the search unwound past the
				// hash block (depth >= 2 beyond the base case).
				if rep.Stats.MaxDepth >= 2 {
					crossed++
				}
				unknowns += rep.Stats.Unknown
			}
			b.ReportMetric(float64(crossed)/float64(b.N), "crossed/op")
			b.ReportMetric(float64(unknowns)/float64(b.N), "unknown/op")
		})
	}
}

// --- Microbenchmarks of the substrate (the usual library health metrics).

func BenchmarkVMExecution(b *testing.B) {
	bug := workload.LongPrefix(3000)
	p := bug.Program()
	cfg := bug.Configs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := vm.New(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverLinearChain(b *testing.B) {
	bug := workload.DistanceChain(8)
	p := bug.Program()
	d := mustFail(b, bug, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.New(p, core.Options{MaxDepth: 10})
		if _, err := eng.Analyze(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzerReuse quantifies the session-API win: one shared
// Analyzer serving a stream of dumps (the predecessor index and program
// preprocessing amortized across analyses) against constructing a fresh
// Analyzer per dump.
func BenchmarkAnalyzerReuse(b *testing.B) {
	bug := workload.AmbiguousDispatch(10)
	p := bug.Program()
	dumps := collectDumps(b, bug, 8)
	ctx := context.Background()
	opts := []res.Option{res.WithMaxDepth(12), res.WithMaxNodes(2000)}
	b.Run("shared-analyzer", func(b *testing.B) {
		a := res.NewAnalyzer(p, opts...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range dumps {
				if _, err := a.Analyze(ctx, d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fresh-analyzer-per-dump", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range dumps {
				if _, err := res.NewAnalyzer(p, opts...).Analyze(ctx, d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("shared-analyzer-batch", func(b *testing.B) {
		a := res.NewAnalyzer(p, opts...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.AnalyzeBatch(ctx, dumps, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceIngest measures the ingestion service's two paths for
// one submitted dump: cold (a fresh analysis through the queue, worker,
// solver, and report pipeline) against cached (the same dump resubmitted
// and answered from the content-addressed store). The cached path is the
// production steady state — a fleet resubmits the same failures far more
// often than it discovers new ones — and must be orders of magnitude
// cheaper than cold analysis.
func BenchmarkServiceIngest(b *testing.B) {
	bug := workload.RaceCounter()
	p := bug.Program()
	d := mustFail(b, bug, 50)
	dumpBytes, err := d.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	cfg := service.Config{
		Analysis:     service.AnalysisConfig{MaxDepth: 14, MaxNodes: 4000},
		ShardWorkers: 1,
	}
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		// One long-lived service; the store is defeated per-iteration by
		// constructing it fresh, which is exactly a first-sight dump.
		for i := 0; i < b.N; i++ {
			svc := service.New(cfg)
			progID, err := svc.RegisterProgram(bug.Name, p)
			if err != nil {
				b.Fatal(err)
			}
			job, err := svc.Submit(progID, dumpBytes)
			if err != nil {
				b.Fatal(err)
			}
			if job, err = svc.Wait(ctx, job.ID); err != nil || job.Status != service.StatusDone {
				b.Fatalf("job = %+v, err = %v", job, err)
			}
			if job.Cached {
				b.Fatal("cold path hit the cache")
			}
			svc.Shutdown(ctx)
		}
	})
	b.Run("cached", func(b *testing.B) {
		svc := service.New(cfg)
		progID, err := svc.RegisterProgram(bug.Name, p)
		if err != nil {
			b.Fatal(err)
		}
		job, err := svc.Submit(progID, dumpBytes)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Wait(ctx, job.ID); err != nil {
			b.Fatal(err)
		}
		defer svc.Shutdown(ctx)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := svc.Submit(progID, dumpBytes)
			if err != nil {
				b.Fatal(err)
			}
			if !job.Cached || job.Status != service.StatusDone {
				b.Fatalf("cached path missed: %+v", job)
			}
		}
		b.StopTimer()
		m := svc.Metrics()
		b.ReportMetric(m.CacheHitRate, "hitrate/op")
	})
}

// BenchmarkDeepSuffix is the depth-scalability acceptance gauge: a long
// linear reconstruction (DistanceChain) analyzed under growing depth
// budgets. step-ns/op is the mean cost of one backward-step attempt over
// the run; it must stay ~flat as the suffix deepens — the whole point of
// incremental solver sessions (a child step propagates only its own
// constraints) and copy-on-write snapshots (a child clone records only
// its own deltas).
func BenchmarkDeepSuffix(b *testing.B) {
	bug := workload.DistanceChain(26)
	p := bug.Program()
	d := mustFail(b, bug, 2)
	for _, depth := range []int{4, 8, 16, 24} {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			var attempts, reached int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.New(p, core.Options{MaxDepth: depth, MaxNodes: 20000})
				rep, err := eng.Analyze(d)
				if err != nil {
					b.Fatal(err)
				}
				attempts += rep.Stats.Attempts
				reached += rep.Stats.MaxDepth
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "step-ns/op")
			b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
			b.ReportMetric(float64(reached)/float64(b.N), "depth/op")
		})
	}
}

// BenchmarkDeepSuffixTraced is BenchmarkDeepSuffix with span tracing
// enabled: the observability layer's overhead gauge. Its step-ns/op is
// directly comparable to the untraced run's — the acceptance bar is
// under 5% between the two (see BENCH.md). spans/op reports how many
// spans one analysis emits, pinning that per-depth instrumentation
// stays O(depth), not O(attempts).
func BenchmarkDeepSuffixTraced(b *testing.B) {
	bug := workload.DistanceChain(26)
	p := bug.Program()
	d := mustFail(b, bug, 2)
	for _, depth := range []int{4, 8, 16, 24} {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			var attempts, reached, spans int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := obs.NewTrace("analysis")
				eng := core.New(p, core.Options{MaxDepth: depth, MaxNodes: 20000, Trace: tr.Root()})
				rep, err := eng.Analyze(d)
				if err != nil {
					b.Fatal(err)
				}
				tr.Root().End()
				attempts += rep.Stats.Attempts
				reached += rep.Stats.MaxDepth
				spans += len(tr.Finish().Spans)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "step-ns/op")
			b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
			b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
			_ = reached
		})
	}
}

// BenchmarkTraceOverheadPaired is the tracing-overhead measurement the
// observability layer is held to (< 5%). It interleaves an untraced and a
// traced analysis inside every iteration and reports the ratio directly,
// so slow drift on a shared machine (CPU frequency, noisy neighbours) —
// which dominates back-to-back comparisons of BenchmarkDeepSuffix vs
// BenchmarkDeepSuffixTraced — cancels out of the overhead-pct metric.
func BenchmarkTraceOverheadPaired(b *testing.B) {
	bug := workload.DistanceChain(26)
	p := bug.Program()
	d := mustFail(b, bug, 2)
	for _, depth := range []int{4, 8, 16, 24} {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			plain := func() int64 {
				t0 := time.Now()
				eng := core.New(p, core.Options{MaxDepth: depth, MaxNodes: 20000})
				if _, err := eng.Analyze(d); err != nil {
					b.Fatal(err)
				}
				return time.Since(t0).Nanoseconds()
			}
			traced := func() int64 {
				t0 := time.Now()
				tr := obs.NewTrace("analysis")
				eng := core.New(p, core.Options{MaxDepth: depth, MaxNodes: 20000, Trace: tr.Root()})
				if _, err := eng.Analyze(d); err != nil {
					b.Fatal(err)
				}
				tr.Root().End()
				if got := len(tr.Finish().Spans); got < 2 {
					b.Fatalf("traced run produced %d spans", got)
				}
				return time.Since(t0).Nanoseconds()
			}
			var plainNS, tracedNS int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate which variant runs first so GC and cache
				// state inherited from the previous run cancel out.
				if i%2 == 0 {
					plainNS += plain()
					tracedNS += traced()
				} else {
					tracedNS += traced()
					plainNS += plain()
				}
			}
			b.ReportMetric(float64(plainNS)/float64(b.N), "plain-ns/op")
			b.ReportMetric(float64(tracedNS)/float64(b.N), "traced-ns/op")
			b.ReportMetric((float64(tracedNS)/float64(plainNS)-1)*100, "overhead-pct")
		})
	}
	// The sweep sub-benchmark runs the whole depth schedule per
	// iteration and reports the overall traced/untraced ratio — the
	// headline "tracing costs N% of BenchmarkDeepSuffix" number, with
	// each depth weighted by how long it actually takes.
	b.Run("sweep", func(b *testing.B) {
		depths := []int{4, 8, 16, 24}
		sweep := func(trace bool) int64 {
			t0 := time.Now()
			for _, depth := range depths {
				opt := core.Options{MaxDepth: depth, MaxNodes: 20000}
				var tr *obs.Trace
				if trace {
					tr = obs.NewTrace("analysis")
					opt.Trace = tr.Root()
				}
				eng := core.New(p, opt)
				if _, err := eng.Analyze(d); err != nil {
					b.Fatal(err)
				}
				if trace {
					tr.Root().End()
					if got := len(tr.Finish().Spans); got < 2 {
						b.Fatalf("traced run produced %d spans", got)
					}
				}
			}
			return time.Since(t0).Nanoseconds()
		}
		var plainNS, tracedNS int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				plainNS += sweep(false)
				tracedNS += sweep(true)
			} else {
				tracedNS += sweep(true)
				plainNS += sweep(false)
			}
		}
		b.ReportMetric(float64(plainNS)/float64(b.N), "plain-ns/op")
		b.ReportMetric(float64(tracedNS)/float64(b.N), "traced-ns/op")
		b.ReportMetric((float64(tracedNS)/float64(plainNS)-1)*100, "overhead-pct")
	})
}

// BenchmarkParallelSearch measures the candidate-level worker pool on a
// wide search (AmbiguousDispatch fans many feasible predecessors per
// depth). The engines produce bit-identical reports; parallelism only
// divides the wall clock, and the achievable speedup is bounded by the
// cores metric (GOMAXPROCS) — on a single-core machine the sub-benchmarks
// coincide and the pool only proves it costs ~nothing.
func BenchmarkParallelSearch(b *testing.B) {
	bug := workload.AmbiguousDispatch(10)
	p := bug.Program()
	d := mustFail(b, bug, 4)
	ctx := context.Background()
	for _, par := range []int{1, 2, 4} {
		par := par
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			a := res.NewAnalyzer(p,
				res.WithMaxDepth(24), res.WithMaxNodes(6000),
				res.WithSearchParallelism(par))
			var attempts int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := a.Analyze(ctx, d)
				if err != nil {
					b.Fatal(err)
				}
				attempts += r.Report.Stats.Attempts
			}
			b.ReportMetric(float64(attempts)/float64(b.N), "attempts/op")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
		})
	}
}

func BenchmarkDumpSerialization(b *testing.B) {
	bug := workload.Fig1()
	d := mustFail(b, bug, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := d.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := coredump.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaintAnalysis(b *testing.B) {
	bug := workload.TaintedOverflow()
	p := bug.Program()
	d := mustFail(b, bug, 4)
	eng := core.New(p, core.Options{MaxDepth: 10})
	rep, err := eng.Analyze(d)
	if err != nil || len(rep.Suffixes) == 0 {
		b.Fatalf("setup: %v", err)
	}
	syn, err := eng.Concretize(rep.Suffixes[len(rep.Suffixes)-1], d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taint.Analyze(p, syn, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointLongExecution is the checkpoint-ring acceptance
// gauge (BENCH_pr6): a failure whose root cause sits at the start of the
// execution, swept from 1k to 100k total steps. The full-depth baseline
// must unwind the whole execution to reconstruct it — wall clock linear
// in execution length — while the checkpointed analysis anchors at the
// latest verified checkpoint and unwinds at most one checkpoint interval
// regardless of length. Both reach the identical root-cause key
// (asserted in TestCheckpointLongExecutionAcceptance); here only the
// cost moves. depth/op is the deepest suffix explored, the quantity the
// ring bounds.
//
// The anchored sweep runs to 100k steps; the full-depth baseline is
// truncated at 3k because its cost grows superlinearly with the unwind
// depth (~8s at 1k, ~250s at 3k on the reference box) and any later
// point alone would dominate the whole suite. The trend is established
// on the overlapping range, where the anchored analysis is already
// ~50x cheaper at 1k and ~800x at 3k — and the anchored curve keeps
// going to 100k while the baseline cannot.
func BenchmarkCheckpointLongExecution(b *testing.B) {
	prep := func(n int) (*prog.Program, *coredump.Dump, *res.CheckpointRing) {
		bug := workload.DistanceChain(n)
		d, ring, _, err := bug.FindFailureCheckpointed(4, res.CheckpointConfig{Every: 64, Cap: 256})
		if err != nil {
			b.Fatalf("%s: %v", bug.Name, err)
		}
		return bug.Program(), d, ring
	}
	for _, n := range []int{1000, 3000, 10000, 30000, 100000} {
		n := n
		b.Run(fmt.Sprintf("anchored-%d", n), func(b *testing.B) {
			p, d, ring := prep(n)
			a := res.NewAnalyzer(p, res.WithMaxNodes(20000), res.WithCheckpoints(ring))
			ctx := context.Background()
			var depth, found int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := a.Analyze(ctx, d)
				if err != nil {
					b.Fatal(err)
				}
				depth += r.Report.Stats.MaxDepth
				if r.Cause != nil && r.CheckpointAnchor != nil {
					found++
				}
			}
			b.ReportMetric(float64(depth)/float64(b.N), "depth/op")
			b.ReportMetric(float64(found)/float64(b.N), "found/op")
			b.ReportMetric(float64(ring.Interval), "interval")
			b.ReportMetric(float64(d.Steps), "execblocks")
		})
	}
	for _, n := range []int{1000, 3000} {
		n := n
		b.Run(fmt.Sprintf("full-depth-%d", n), func(b *testing.B) {
			p, d, _ := prep(n)
			a := res.NewAnalyzer(p, res.WithMaxDepth(n+4), res.WithMaxNodes(2*n+20000))
			ctx := context.Background()
			var depth, found int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := a.Analyze(ctx, d)
				if err != nil {
					b.Fatal(err)
				}
				depth += r.Report.Stats.MaxDepth
				if r.Cause != nil {
					found++
				}
			}
			b.ReportMetric(float64(depth)/float64(b.N), "depth/op")
			b.ReportMetric(float64(found)/float64(b.N), "found/op")
			b.ReportMetric(float64(d.Steps), "execblocks")
		})
	}
}

// BenchmarkAblationForcedBindings quantifies the design choice DESIGN.md
// calls out: the register-only pre-pass whose forced (logically implied)
// bindings resolve stack-relative addresses during backward execution.
// Without it, call/return unwinding degrades to Unknown and the search
// cannot cross function boundaries.
func BenchmarkAblationForcedBindings(b *testing.B) {
	src := `
.global g 1
func main:
    const r0, 6
    call work
    storeg r0, &g
    loadg r1, &g
    addi r2, r1, -21
    assert r2
    halt
func work:
    addi sp, sp, -1
    store sp, r0, 0
    load r3, sp, 0
    addi sp, sp, 1
    mul r0, r3, r0
    addi r0, r0, -15
    ret
`
	p, err := res.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := res.Run(p, res.RunConfig{})
	if err != nil || d == nil {
		b.Fatalf("setup: %v %v", d, err)
	}
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "with-probe"
		if disable {
			name = "no-probe"
		}
		b.Run(name, func(b *testing.B) {
			var unknowns, depth int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.New(p, core.Options{MaxDepth: 12, DisableProbe: disable})
				rep, err := eng.Analyze(d)
				if err != nil {
					b.Fatal(err)
				}
				unknowns += rep.Stats.Unknown
				depth += rep.Stats.MaxDepth
			}
			b.ReportMetric(float64(unknowns)/float64(b.N), "unknown/op")
			b.ReportMetric(float64(depth)/float64(b.N), "depth/op")
		})
	}
}

// BenchmarkMinimize measures the delta-debugging loop that shrinks a
// recorded failure's redundant evidence set to a 1-minimal repro (the
// closing-the-loop subsystem). ns/op is dominated by the analyzer
// re-runs ddmin schedules, so the series to watch is analyzer-runs/op
// (how many re-analyses one minimization costs) and reductions/op (how
// much of the attachment set it sheds); the cause key is asserted
// byte-identical every iteration, so the benchmark doubles as a
// soundness check under -benchtime stress.
func BenchmarkMinimize(b *testing.B) {
	bug := workload.RaceCounter()
	p := bug.Program()
	d, set, _, err := bug.FindFailureRecorded(60, evidence.RecordConfig{EventEvery: 3, EventWindow: 64, BranchWindow: 64})
	if err != nil {
		b.Fatalf("%s: %v", bug.Name, err)
	}
	srcs := append([]res.EvidenceSource{}, set...)
	srcs = append(srcs, res.EvidenceLBR(res.LBRRecordAll), res.EvidenceOutputLog())
	opts := []res.Option{res.WithMaxDepth(10), res.WithMaxNodes(2500), res.WithEvidence(srcs...)}
	ctx := context.Background()
	base, err := res.NewAnalyzer(p).Analyze(ctx, d, opts...)
	if err != nil || base.Cause == nil {
		b.Fatalf("baseline analysis: %v (cause %v)", err, base)
	}
	key := base.Cause.Key()

	var runs, reductions, kept int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := res.Minimize(ctx, p, d, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if m.CauseKey != key {
			b.Fatalf("minimized cause key %q != baseline %q", m.CauseKey, key)
		}
		runs += m.Runs
		reductions += m.Reductions
		kept += m.MinSources
	}
	b.ReportMetric(float64(runs)/float64(b.N), "analyzer-runs/op")
	b.ReportMetric(float64(reductions)/float64(b.N), "reductions/op")
	b.ReportMetric(float64(kept)/float64(b.N), "sources-kept/op")
}
