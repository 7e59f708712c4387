package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"res"
	"res/internal/checkpoint"
	"res/internal/core"
	"res/internal/evidence"
	"res/internal/service"
	"res/internal/store"
)

// longWarmup is how many tuples set-up analyzes before timing starts.
const longWarmup = 2

// longEnv is one resd with a disk store and journal, reached over
// loopback HTTP by one closed-loop client, as res -submit reaches it.
type longEnv struct {
	nodes     []*node
	client    *service.Client
	hc        *http.Client
	progs     []program
	tuples    []tuple
	next      int
	analyzers []*res.Analyzer
	preds     []core.PredIndex
}

// daemonParallelism is the search parallelism a resd shard gives each
// analysis by default: the cores divided among its two workers.
func daemonParallelism() int { return max(1, runtime.GOMAXPROCS(0)/2) }

func setupLong(ctx context.Context, seed int64, dur time.Duration, dir string) (env, string, error) {
	n := longWarmup + int(math.Ceil(dur.Seconds()*longExecOps))
	progs, tuples, hash, err := longExecInputs(seed, n)
	if err != nil {
		return nil, "", err
	}
	nodes, err := startNodes(dir, 1, daemonConfig{})
	if err != nil {
		return nil, "", err
	}
	e := &longEnv{nodes: nodes, progs: progs, tuples: tuples, client: service.NewClient(nodes[0].url), hc: &http.Client{}}
	if err := registerPrograms(ctx, e.client, e.progs); err != nil {
		e.close()
		return nil, "", err
	}
	for _, p := range progs {
		e.analyzers = append(e.analyzers, res.NewAnalyzer(p.bug.Program(),
			res.WithMaxDepth(24), res.WithSearchParallelism(daemonParallelism())))
		e.preds = append(e.preds, core.BuildPredIndex(p.bug.Program()))
	}
	for ; e.next < longWarmup; e.next++ {
		t := e.tuples[e.next]
		if _, reason, _, _ := e.submit(ctx, t); reason != "" {
			e.close()
			return nil, "", fmt.Errorf("warm-up %s: %s", t.class, reason)
		}
	}
	return e, hash, nil
}

// registerPrograms registers every program by source.
func registerPrograms(ctx context.Context, c *service.Client, progs []program) error {
	for i := range progs {
		id, err := c.Register(ctx, progs[i].bug.Name, progs[i].bug.Source)
		if err != nil {
			return fmt.Errorf("register %s: %w", progs[i].bug.Name, err)
		}
		progs[i].id = id
	}
	return nil
}

func (e *longEnv) close() { stopNodes(e.nodes) }

// failReason classifies a submission error: refusals (429/503) apart
// from other errors.
func failReason(err error) string {
	msg := err.Error()
	if strings.Contains(msg, "429") || strings.Contains(msg, "503") {
		return failRefused
	}
	return failError
}

// submit sends one tuple and waits until its result is readable. It
// returns the POST's latency, the oracle's verdict, the parsed report
// and the time from the POST to the readable result.
func (e *longEnv) submit(ctx context.Context, t tuple) (time.Duration, string, report, time.Duration) {
	t0 := time.Now()
	job, err := e.client.SubmitEvidenceCheckpoints(ctx, e.progs[t.prog].id, t.dump, t.evidence, t.ring, nil)
	posted := time.Since(t0)
	if err != nil {
		return posted, failReason(err), report{}, 0
	}
	if !job.Status.Terminal() {
		if job, err = e.client.WatchResult(ctx, job.ID, nil); err != nil {
			return posted, failError, report{}, 0
		}
	}
	done := time.Since(t0)
	if job.Status != service.StatusDone {
		return posted, failError, report{}, done
	}
	if job.Cached {
		// Every long-exec tuple is distinct: a cache hit means the
		// input set repeated, which would measure the wrong thing.
		return posted, failError, report{}, done
	}
	rep, reason := checkReport(t.want, job.Report)
	return posted, reason, rep, done
}

func (e *longEnv) run(ctx context.Context, dur time.Duration, traced bool) (*runResult, error) {
	rr := &runResult{}
	var acc *layerAcc
	var before scrape
	if traced {
		acc = newLayerAcc()
		var err error
		if before, err = scrapeNodes(ctx, e.hc, e.nodes); err != nil {
			return nil, err
		}
	}
	var ttrcSum time.Duration
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		if e.next == len(e.tuples) {
			rr.notes = append(rr.notes, "ran out of first-sight tuples before the deadline")
			break
		}
		t := e.tuples[e.next]
		e.next++
		posted, reason, rep, done := e.submit(ctx, t)
		rr.submit = append(rr.submit, ms(posted))
		if reason == "" {
			rr.ttrc = append(rr.ttrc, ms(done))
			rr.classSample(t.class, ms(done))
			rr.firstSight++
			ttrcSum += done
		}
		if traced && reason == "" {
			reason = e.replica(ctx, t, rep, acc)
		}
		rr.t.add(reason)
	}
	rr.elapsed = time.Since(start)
	if traced {
		after, err := scrapeNodes(ctx, e.hc, e.nodes)
		if err != nil {
			return nil, err
		}
		rr.layers = map[string]float64{}
		acc.libMetrics(rr.layers)
		daemonMetrics(rr.layers, before, after, rr.t.attempted)
		// The daemon's own histograms cover queue wait, the analysis and
		// store operations; the rest of each operation (HTTP, decoding,
		// canonicalization, journaling, result delivery) is unattributed
		// until the daemon has spans of its own.
		covered := delta(before, after, "resd_queue_wait_seconds_sum") +
			delta(before, after, "resd_analysis_seconds_sum") +
			delta(before, after, "resd_store_op_seconds_sum")
		rr.layers["unattributed_share"] = math.Max(0, 1-ratio(covered, ttrcSum.Seconds()))
		rr.notes = append(rr.notes, fmt.Sprintf("library replica unattributed_share=%.4f",
			ratio(float64(acc.self["op"]), float64(acc.libWall))))
	}
	return rr, nil
}

// replica re-runs a finished daemon operation's analysis in the
// benchmark, untraced through res.Analyzer and staged with spans, in
// alternating order, to attribute the library layers the daemon runs.
// Both must reach the daemon's cause key.
func (e *longEnv) replica(ctx context.Context, t tuple, rep report, acc *layerAcc) string {
	t0 := time.Now()
	ring, err := checkpointOf(t.ring)
	acc.ckDecode += time.Since(t0)
	if t.ring != nil {
		acc.ckDecodes++
	}
	if err != nil {
		return failError
	}
	t0 = time.Now()
	set, err := evidence.Decode(t.evidence)
	acc.evDecode += time.Since(t0)
	acc.evDecodes++
	if err != nil {
		return failError
	}
	t0 = time.Now()
	_, _, d, err := store.CanonicalizeDump(t.dump)
	acc.canon += time.Since(t0)
	acc.canons++
	if err != nil {
		return failError
	}
	var (
		plainKey, stagedKey string
		tr                  opTrace
	)
	runPlain := func() {
		t0 := time.Now()
		opts := []res.Option{res.WithEvidence(set...)}
		if ring != nil {
			opts = append(opts, res.WithCheckpoints(ring))
		}
		r, err := e.analyzers[t.prog].Analyze(ctx, d, opts...)
		acc.untracedWall += time.Since(t0)
		if err == nil && r.Cause != nil {
			plainKey = r.Cause.Key()
		}
	}
	runStaged := func() {
		root := tr.begin("op", -1)
		sa := &stagedAnalysis{
			p:           e.progs[t.prog].bug.Program(),
			preds:       e.preds[t.prog],
			maxDepth:    24,
			parallelism: daemonParallelism(),
			sources:     set,
			ring:        ring,
			tr:          &tr,
			c:           &acc.lib,
		}
		best, err := sa.analyze(ctx, d)
		tr.end(root)
		if err == nil && best != nil {
			stagedKey = best.cause.Key()
		}
	}
	if acc.lib.ops%2 == 0 {
		runPlain()
		runStaged()
	} else {
		runStaged()
		runPlain()
	}
	acc.addTrace(&tr)
	if plainKey != rep.Cause.Key || stagedKey != rep.Cause.Key {
		return failKeyChanged
	}
	return ""
}

// checkpointOf decodes a ring attachment; nil bytes mean no ring.
func checkpointOf(raw []byte) (*checkpoint.Ring, error) {
	if raw == nil {
		return nil, nil
	}
	r, err := checkpoint.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("decode ring: %w", err)
	}
	return r, nil
}
