// Command res performs reverse execution synthesis on a coredump: it
// reconstructs a replayable execution suffix, identifies the failure's
// root cause, classifies exploitability, and flags dumps that no feasible
// execution explains (likely hardware errors).
//
// Usage:
//
//	res -prog crash.s -dump core.dump [-lbr] [-outputs] [-depth 24]
//	    [-timeout 30s] [-progress] [-json]
//	res -prog crash.s -dump core.dump -evidence crash.ev [-json]
//	res -prog crash.s -dump core.dump -minimize [-minimize-out min.repro]
//	res -prog crash.s -dump core.dump -submit host:8467 [-progress] [-json]
//	res -prog crash.s -dump a.dump,b.dump,c.dump -submit host:8467
//
// With -timeout the analysis is deadline-bounded and reports the best
// partial answer found before the cutoff; -progress streams search events
// to stderr; -json emits the machine-readable report on stdout; -trace
// writes the analysis span tree as Chrome trace-event JSON (open it in
// chrome://tracing or ui.perfetto.dev).
//
// Evidence: a dump file written by resrun -record-evidence embeds its
// evidence attachment and it is used automatically (disable with
// -ignore-evidence); -evidence supplies or overrides the attachment from
// a separate file of canonical evidence wire bytes (comma-separated,
// positional with -dump, "" entries for none). Evidence prunes the
// search locally and ships with the dump on -submit, where it becomes
// part of the result's cache identity.
//
// Checkpoints work the same way: a dump written by resrun
// -record-checkpoints embeds its checkpoint ring and it anchors the
// backward search automatically (disable with -ignore-checkpoints);
// -checkpoints supplies or overrides the ring from a separate file.
// Anchoring bounds the search's suffix depth by the checkpoint interval
// instead of the execution length, and the ring ships with the dump on
// -submit, where it too becomes part of the result's cache identity.
//
// With -minimize the analysis is followed by delta debugging: the
// evidence attachment set, checkpoint ring, and search budgets are
// minimized (ddmin over sources, bisection over budgets) while requiring
// every reduction to re-analyze to the byte-identical root-cause key.
// The resulting minimal repro is described on stdout and, with
// -minimize-out, written in its canonical wire form (RESMINR1) for
// archival or fix verification (see resfix). With -submit, minimization
// runs server-side instead (POST /v1/jobs/{id}/minimize; the daemon
// needs -cache-dir to archive dumps).
//
// With -submit the analysis runs remotely: the program source and dump are
// shipped to a resd ingestion daemon, which dedups the dump against its
// content-addressed store (an identical dump already analyzed is answered
// without re-analysis) and the result is polled until done — or streamed:
// with -progress the client tails GET /v1/jobs/{id}/events and prints the
// daemon's live search events. Analysis options are the daemon's; the
// local tuning flags do not apply. When -dump names several
// comma-separated files, they ship as one batch request
// (POST /v1/dumps/batch): one HTTP round trip for the whole burst,
// duplicates coalesced server-side.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"res"
	"res/internal/cli"
	"res/internal/service"
)

func main() {
	var (
		progPath  = flag.String("prog", "", "assembly source file (required)")
		dumpPath  = flag.String("dump", "", "coredump file (required)")
		depth     = flag.Int("depth", 0, "maximum suffix length in blocks (0 = default)")
		nodes     = flag.Int("nodes", 0, "backward-step attempt budget (0 = default)")
		useLBR    = flag.Bool("lbr", false, "prune the search with the dump's branch ring")
		lbrSkip   = flag.Bool("lbr-skip-cond", false, "interpret the ring as filtered-LBR hardware")
		outputs   = flag.Bool("outputs", false, "prune with error-log breadcrumbs")
		showSfx   = flag.Bool("suffix", false, "print the synthesized suffix schedule")
		stats     = flag.Bool("stats", false, "print search statistics")
		timeout   = flag.Duration("timeout", 0, "analysis deadline (0 = none)")
		progress  = flag.Bool("progress", false, "stream search progress to stderr")
		jsonOut   = flag.Bool("json", false, "emit the machine-readable JSON report on stdout")
		submit    = flag.String("submit", "", "submit to a resd daemon at this address instead of analyzing locally")
		searchP   = flag.Int("search-parallel", 0, "candidate-level search parallelism (0 = all cores, 1 = sequential; results identical either way)")
		evPath    = flag.String("evidence", "", "evidence file(s), comma-separated positional with -dump (overrides embedded attachments; \"\" entries for none)")
		ignoreEv  = flag.Bool("ignore-evidence", false, "drop any evidence embedded in the dump file")
		ckPath    = flag.String("checkpoints", "", "checkpoint ring file(s), comma-separated positional with -dump (overrides embedded attachments; \"\" entries for none)")
		ignoreCk  = flag.Bool("ignore-checkpoints", false, "drop any checkpoint ring embedded in the dump file")
		tracePath = flag.String("trace", "", "write the analysis span tree as Chrome trace-event JSON to this file (local analysis only)")
		minimize  = flag.Bool("minimize", false, "delta-debug the tuple into a minimal repro preserving the root-cause key")
		minOut    = flag.String("minimize-out", "", "write the minimal repro's canonical wire bytes (RESMINR1) to this file (implies -minimize)")
		version   = flag.Bool("version", false, "print version and exit")
		logFormat = flag.String("log-format", "text", cli.LogFormatUsage)
	)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("res"))
		return
	}
	if err := cli.SetupLogging(*logFormat, "", nil); err != nil {
		cli.Fatal(err)
	}
	if *progPath == "" || *dumpPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	dumpPaths := strings.Split(*dumpPath, ",")
	var evPaths []string
	if *evPath != "" {
		evPaths = strings.Split(*evPath, ",")
		if len(evPaths) != len(dumpPaths) {
			cli.Fatal(fmt.Errorf("-evidence names %d files for %d dumps", len(evPaths), len(dumpPaths)))
		}
	}
	var ckPaths []string
	if *ckPath != "" {
		ckPaths = strings.Split(*ckPath, ",")
		if len(ckPaths) != len(dumpPaths) {
			cli.Fatal(fmt.Errorf("-checkpoints names %d files for %d dumps", len(ckPaths), len(dumpPaths)))
		}
	}
	if *minOut != "" {
		*minimize = true
	}
	if *submit != "" {
		if *tracePath != "" {
			cli.Fatal(fmt.Errorf("-trace applies to local analysis; for remote jobs fetch GET /v1/jobs/{id}/trace from the daemon"))
		}
		if *minimize && len(dumpPaths) > 1 {
			cli.Fatal(fmt.Errorf("-minimize with -submit takes a single dump"))
		}
		tuples := make([]service.SubmitRequest, len(dumpPaths))
		for i, dp := range dumpPaths {
			tuples[i] = loadTuple(*progPath, dp, evidencePathAt(evPaths, i), evidencePathAt(ckPaths, i), *ignoreEv, *ignoreCk)
		}
		ctx, cancel := deadline(*timeout)
		defer cancel()
		c := service.NewClient(*submit)
		switch {
		case *minimize:
			submitRemoteMinimize(ctx, c, tuples[0], *minOut, *jsonOut)
		case len(tuples) > 1:
			submitRemoteBatch(ctx, c, tuples, dumpPaths, *jsonOut)
		default:
			submitRemote(ctx, c, tuples[0], *progress, *jsonOut)
		}
		return
	}
	if len(dumpPaths) > 1 {
		cli.Fatal(fmt.Errorf("multiple dumps are only supported with -submit; got %d paths", len(dumpPaths)))
	}
	p, err := cli.LoadProgram(*progPath)
	if err != nil {
		cli.Fatal(err)
	}
	d, evBytes, ckBytes, err := cli.LoadDump(*dumpPath, p)
	if err != nil {
		cli.Fatal(err)
	}
	evBytes, err = resolveEvidence(evBytes, evidencePathAt(evPaths, 0), *ignoreEv)
	if err != nil {
		cli.Fatal(err)
	}
	ckBytes, err = resolveEvidence(ckBytes, evidencePathAt(ckPaths, 0), *ignoreCk)
	if err != nil {
		cli.Fatal(err)
	}

	opts := []res.Option{res.WithMaxDepth(*depth), res.WithMaxNodes(*nodes), res.WithSearchParallelism(*searchP)}
	if *useLBR {
		mode := res.LBRRecordAll
		if *lbrSkip {
			mode = res.LBRSkipConditional
		}
		opts = append(opts, res.WithLBR(mode))
	}
	if *outputs {
		opts = append(opts, res.WithMatchOutputs())
	}
	if len(evBytes) > 0 {
		set, derr := res.DecodeEvidence(evBytes)
		if derr != nil {
			cli.Fatal(derr)
		}
		if !*jsonOut {
			fmt.Printf("evidence: %s\n", strings.Join(set.Kinds(), ", "))
		}
		opts = append(opts, res.WithEvidence(set...))
	}
	if len(ckBytes) > 0 {
		ring, derr := res.DecodeCheckpoints(ckBytes)
		if derr != nil {
			cli.Fatal(derr)
		}
		if !ring.Empty() {
			if !*jsonOut {
				fmt.Printf("checkpoints: %d (interval %d)\n", len(ring.Checkpoints), ring.Interval)
			}
			opts = append(opts, res.WithCheckpoints(ring))
		}
	}
	if *progress {
		opts = append(opts, res.WithObserver(progressObserver()))
	}
	if *tracePath != "" {
		opts = append(opts, res.WithTrace(true))
	}

	ctx, cancel := deadline(*timeout)
	defer cancel()

	if !*jsonOut {
		fmt.Printf("failure: %s\n", d.Fault)
	}
	a := res.NewAnalyzer(p, opts...)
	r, err := a.Analyze(ctx, d)
	if err != nil && r == nil {
		cli.Fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "analysis cut short: %v\n", err)
	}
	if *tracePath != "" && r.Trace != nil {
		if werr := os.WriteFile(*tracePath, r.Trace.ChromeTrace(), 0o644); werr != nil {
			cli.Fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s (load in chrome://tracing or ui.perfetto.dev)\n",
			len(r.Trace.Spans), *tracePath)
	}
	if *jsonOut {
		buf, jerr := r.JSON()
		if jerr != nil {
			cli.Fatal(jerr)
		}
		fmt.Println(string(buf))
		return
	}
	fmt.Println(r.Describe())
	if r.CheckpointAnchor != nil {
		fmt.Printf("checkpoint anchor: step %d (suffix depth %d)\n",
			r.CheckpointAnchor.Step, r.CheckpointAnchor.Depth)
	}
	if r.HardwareSuspect {
		fmt.Println("verdict: the coredump is inconsistent with every feasible execution suffix")
	}
	if *showSfx && r.Suffix != nil {
		fmt.Println(r.Suffix)
		if len(r.Suffix.Inputs) > 0 {
			fmt.Printf("synthesized inputs: %v\n", r.Suffix.Inputs)
		}
		fmt.Printf("read set: %v\nwrite set: %v\n", r.Synthesized.ReadSet, r.Synthesized.WriteSet)
	}
	if *stats {
		s := r.Report.Stats
		fmt.Printf("stats: attempts=%d feasible=%d infeasible=%d unknown=%d solver-calls=%d max-depth=%d\n",
			s.Attempts, s.Feasible, s.Infeasible, s.Unknown, s.SolverCalls, s.MaxDepth)
	}
	if r.Replay != nil && r.Replay.Matches {
		fmt.Println("replay: suffix deterministically reproduces the coredump")
	}
	if *minimize {
		m, merr := res.Minimize(ctx, p, d, opts...)
		if merr != nil {
			cli.Fatal(merr)
		}
		fmt.Println(res.DescribeMinimalRepro(m))
		if *minOut != "" {
			if werr := os.WriteFile(*minOut, m.Encode(), 0o644); werr != nil {
				cli.Fatal(werr)
			}
			fmt.Fprintf(os.Stderr, "minimal repro written to %s (fingerprint %s)\n", *minOut, m.Fingerprint())
		}
	}
}

// evidencePathAt returns the i-th -evidence entry, or "".
func evidencePathAt(paths []string, i int) string {
	if i < len(paths) {
		return strings.TrimSpace(paths[i])
	}
	return ""
}

// resolveEvidence applies the evidence flags to a dump's embedded
// attachment: -ignore-evidence drops it, an -evidence file replaces it.
func resolveEvidence(embedded []byte, override string, ignore bool) ([]byte, error) {
	if ignore {
		embedded = nil
	}
	if override == "" {
		return embedded, nil
	}
	return os.ReadFile(override)
}

// deadline returns the context -timeout bounds; 0 means no deadline.
func deadline(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// loadTuple reads one failure tuple for remote submission: the program
// source, the dump with its embedded attachments, and the -evidence and
// -checkpoints overrides. The daemon registers the program on first
// sight (content-keyed), so a fleet of res clients submitting dumps of
// one binary share a single analysis session server-side.
func loadTuple(progPath, dumpPath, evPath, ckPath string, ignoreEv, ignoreCk bool) service.SubmitRequest {
	src, err := os.ReadFile(progPath)
	if err != nil {
		cli.Fatal(err)
	}
	dump, evBytes, ckBytes, err := cli.SplitDumpFile(strings.TrimSpace(dumpPath))
	if err != nil {
		cli.Fatal(err)
	}
	if evBytes, err = resolveEvidence(evBytes, evPath, ignoreEv); err != nil {
		cli.Fatal(err)
	}
	if ckBytes, err = resolveEvidence(ckBytes, ckPath, ignoreCk); err != nil {
		cli.Fatal(err)
	}
	return service.SubmitRequest{ProgramName: filepath.Base(progPath), ProgramSource: string(src),
		Dump: dump, Evidence: evBytes, Checkpoints: ckBytes}
}

// submitRemote ships one tuple to a resd daemon and polls the result —
// or, with -progress, tails the daemon's live event stream.
func submitRemote(ctx context.Context, c *service.Client, req service.SubmitRequest, progress, jsonOut bool) {
	job, err := c.Submit(ctx, req)
	if err != nil {
		cli.Fatal(err)
	}
	if len(job.Evidence) > 0 {
		fmt.Fprintf(os.Stderr, "evidence attached: %s\n", strings.Join(job.Evidence, ", "))
	}
	if job.Checkpointed {
		fmt.Fprintln(os.Stderr, "checkpoint ring attached")
	}
	if !job.Status.Terminal() {
		if progress {
			fmt.Fprintf(os.Stderr, "submitted job %s (status %s), streaming progress...\n", job.ID, job.Status)
			start := time.Now()
			job, err = c.WatchResult(ctx, job.ID, func(ev service.ProgressEvent) {
				switch ev.Kind {
				case "depth":
					fmt.Fprintf(os.Stderr, "[%7.3fs] depth %d (attempts=%d feasible=%d)\n",
						time.Since(start).Seconds(), ev.Depth, ev.Attempts, ev.Feasible)
				case "suffix":
					fmt.Fprintf(os.Stderr, "[%7.3fs] feasible suffix at depth %d\n",
						time.Since(start).Seconds(), ev.Depth)
				case "solver":
					fmt.Fprintf(os.Stderr, "[%7.3fs] ... attempts=%d solver-calls=%d\n",
						time.Since(start).Seconds(), ev.Attempts, ev.SolverCalls)
				case "status":
					fmt.Fprintf(os.Stderr, "[%7.3fs] job %s\n", time.Since(start).Seconds(), ev.Status)
				case "dropped":
					fmt.Fprintf(os.Stderr, "[%7.3fs] (stream congested: %d events dropped)\n",
						time.Since(start).Seconds(), ev.Dropped)
				}
			})
			if err != nil {
				cli.Fatal(err)
			}
		} else {
			fmt.Fprintf(os.Stderr, "submitted job %s (status %s), polling...\n", job.ID, job.Status)
			if job, err = c.PollResult(ctx, job.ID, 250*time.Millisecond); err != nil {
				cli.Fatal(err)
			}
		}
	}
	switch job.Status {
	case service.StatusDone:
		if job.Cached {
			fmt.Fprintln(os.Stderr, "served from the result store (cache hit)")
		}
		if jsonOut {
			fmt.Println(string(job.Report))
			return
		}
		fmt.Printf("job %s done", job.ID)
		if job.Partial {
			fmt.Print(" (partial: cut short by the daemon's deadline)")
		}
		fmt.Println()
		if job.Bucket != "" {
			fmt.Printf("bucket: %s\n", job.Bucket)
		}
		fmt.Println(string(job.Report))
	case service.StatusFailed:
		cli.Fatal(fmt.Errorf("remote analysis failed: %s", job.Error))
	default:
		cli.Fatal(fmt.Errorf("job %s ended %s: %s", job.ID, job.Status, job.Error))
	}
}

// submitRemoteMinimize runs the analyze-then-minimize loop server-side:
// submit the tuple, wait for the analysis, then POST
// /v1/jobs/{id}/minimize and wait for the minimal repro. The daemon must
// archive dumps (-cache-dir) for the second step to find the tuple.
func submitRemoteMinimize(ctx context.Context, c *service.Client, req service.SubmitRequest, minOut string, jsonOut bool) {
	job, err := c.Submit(ctx, req)
	if err != nil {
		cli.Fatal(err)
	}
	if !job.Status.Terminal() {
		fmt.Fprintf(os.Stderr, "submitted job %s (status %s), waiting for analysis...\n", job.ID, job.Status)
		if job, err = c.PollResult(ctx, job.ID, 250*time.Millisecond); err != nil {
			cli.Fatal(err)
		}
	}
	if job.Status != service.StatusDone {
		cli.Fatal(fmt.Errorf("job %s ended %s: %s", job.ID, job.Status, job.Error))
	}
	mj, err := c.MinimizeJob(ctx, job.ID, service.MinimizeRequest{})
	if err != nil {
		cli.Fatal(err)
	}
	if !mj.Status.Terminal() {
		fmt.Fprintf(os.Stderr, "minimize job %s (status %s), waiting...\n", mj.ID, mj.Status)
		if mj, err = c.PollResult(ctx, mj.ID, 250*time.Millisecond); err != nil {
			cli.Fatal(err)
		}
	}
	if mj.Status != service.StatusDone {
		cli.Fatal(fmt.Errorf("minimize job %s ended %s: %s", mj.ID, mj.Status, mj.Error))
	}
	if mj.Cached {
		fmt.Fprintln(os.Stderr, "served from the result store (cache hit)")
	}
	if jsonOut {
		fmt.Println(string(mj.Report))
		return
	}
	var rep struct {
		Repro []byte `json:"repro"`
	}
	if err := json.Unmarshal(mj.Report, &rep); err != nil {
		cli.Fatal(err)
	}
	m, err := res.DecodeMinimalRepro(rep.Repro)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Println(res.DescribeMinimalRepro(m))
	if minOut != "" {
		if werr := os.WriteFile(minOut, m.Encode(), 0o644); werr != nil {
			cli.Fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "minimal repro written to %s (fingerprint %s)\n", minOut, m.Fingerprint())
	}
}

// submitRemoteBatch ships several tuples of one program in one POST
// /v1/dumps/batch round trip, then polls every distinct job to completion
// and prints a per-dump summary (or a JSON array of reports with -json).
// dumpPaths name the tuples in the summary.
func submitRemoteBatch(ctx context.Context, c *service.Client, tuples []service.SubmitRequest, dumpPaths []string, jsonOut bool) {
	req := service.BatchSubmitRequest{ProgramName: tuples[0].ProgramName, ProgramSource: tuples[0].ProgramSource}
	anyEv, anyCk := false, false
	for _, t := range tuples {
		req.Dumps = append(req.Dumps, t.Dump)
		req.Evidence = append(req.Evidence, t.Evidence)
		req.Checkpoints = append(req.Checkpoints, t.Checkpoints)
		anyEv = anyEv || len(t.Evidence) > 0
		anyCk = anyCk || len(t.Checkpoints) > 0
	}
	if !anyEv {
		req.Evidence = nil
	}
	if !anyCk {
		req.Checkpoints = nil
	}
	items, err := c.SubmitBatch(ctx, req)
	if err != nil {
		cli.Fatal(err)
	}
	// Poll each distinct in-flight job once; duplicates share the answer.
	finals := make(map[string]service.Job)
	for _, it := range items {
		if it.Error != "" || it.Job.ID == "" {
			continue
		}
		if _, done := finals[it.Job.ID]; done {
			continue
		}
		job := it.Job
		if !job.Status.Terminal() {
			if job, err = c.PollResult(ctx, job.ID, 250*time.Millisecond); err != nil {
				cli.Fatal(err)
			}
		}
		finals[job.ID] = job
	}
	failed := 0
	if jsonOut {
		reports := make([]json.RawMessage, 0, len(items))
		for _, it := range items {
			if it.Error != "" {
				failed++
				reports = append(reports, nil)
				continue
			}
			job := finals[it.Job.ID]
			if job.Status != service.StatusDone {
				failed++
				reports = append(reports, nil)
				continue
			}
			reports = append(reports, job.Report)
		}
		buf, err := json.Marshal(reports)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Println(string(buf))
	} else {
		for i, it := range items {
			name := strings.TrimSpace(dumpPaths[i])
			switch {
			case it.Error != "":
				failed++
				fmt.Printf("%s: error: %s\n", name, it.Error)
			default:
				job := finals[it.Job.ID]
				tag := ""
				if it.Duplicate {
					tag = " (duplicate in batch)"
				} else if job.Cached {
					tag = " (cache hit)"
				}
				if job.Status != service.StatusDone {
					failed++
					fmt.Printf("%s: %s: %s%s\n", name, job.Status, job.Error, tag)
					continue
				}
				fmt.Printf("%s: done%s bucket=%s job=%s\n", name, tag, job.Bucket, job.ID)
			}
		}
		fmt.Fprintf(os.Stderr, "batch: %d dumps, %d distinct jobs, %d failed\n",
			len(items), len(finals), failed)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// progressObserver prints a compact search trace to stderr: one line per
// depth advance and per feasible suffix, a periodic stats heartbeat.
func progressObserver() func(res.Event) {
	start := time.Now()
	return func(ev res.Event) {
		switch ev.Kind {
		case res.EventDepth:
			fmt.Fprintf(os.Stderr, "[%7.3fs] depth %d (attempts=%d feasible=%d)\n",
				time.Since(start).Seconds(), ev.Depth, ev.Stats.Attempts, ev.Stats.Feasible)
		case res.EventSuffix:
			fmt.Fprintf(os.Stderr, "[%7.3fs] feasible suffix at depth %d\n",
				time.Since(start).Seconds(), ev.Depth)
		case res.EventSolver:
			fmt.Fprintf(os.Stderr, "[%7.3fs] ... attempts=%d solver-calls=%d unknown=%d\n",
				time.Since(start).Seconds(), ev.Stats.Attempts, ev.Stats.SolverCalls, ev.Stats.Unknown)
		}
	}
}
