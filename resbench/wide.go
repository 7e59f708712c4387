package main

import (
	"context"
	"runtime"
	"time"

	"res"
	"res/internal/breadcrumb"
	"res/internal/core"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/workload"
)

// wideDepth is the wide-search depth bound: deep enough for nine
// dispatch rounds (depth 29) with room to spare.
const wideDepth = 34

// wideEnv is the library workload: one reusable Analyzer per program, as
// res and resdbg hold them, driven by one closed-loop caller.
type wideEnv struct {
	items     []libItem
	analyzers map[*workload.Bug]*res.Analyzer
	preds     map[*workload.Bug]core.PredIndex
}

func setupWide(ctx context.Context, seed int64, _ time.Duration, _ string) (env, string, error) {
	items, hash, err := wideInputs(seed)
	if err != nil {
		return nil, "", err
	}
	e := &wideEnv{items: items, analyzers: map[*workload.Bug]*res.Analyzer{}, preds: map[*workload.Bug]core.PredIndex{}}
	for _, it := range items {
		if e.analyzers[it.bug] == nil {
			e.analyzers[it.bug] = res.NewAnalyzer(it.bug.Program(), res.WithMaxDepth(wideDepth))
			e.preds[it.bug] = core.BuildPredIndex(it.bug.Program())
		}
	}
	// Warm-up: one analysis per program, so the first timed operation
	// does not pay for first-touch allocation.
	warmed := map[*workload.Bug]bool{}
	for i, it := range items {
		if warmed[it.bug] {
			continue
		}
		warmed[it.bug] = true
		if _, err := e.analyze(ctx, i); err != nil {
			return nil, "", err
		}
	}
	return e, hash, nil
}

func (e *wideEnv) close() {}

func (e *wideEnv) options(it libItem) []res.Option {
	if it.lbr {
		return []res.Option{res.WithLBR(res.LBRRecordAll)}
	}
	return nil
}

// analyze is one untraced operation on item i: decode the dump's wire
// bytes (the library's intake) and analyze it.
func (e *wideEnv) analyze(ctx context.Context, i int) (*res.Result, error) {
	d, err := coredump.Unmarshal(e.items[i].dump)
	if err != nil {
		return nil, err
	}
	return e.analyzers[e.items[i].bug].Analyze(ctx, d, e.options(e.items[i])...)
}

func (e *wideEnv) run(ctx context.Context, dur time.Duration, traced bool) (*runResult, error) {
	rr := &runResult{}
	var acc *layerAcc
	if traced {
		acc = newLayerAcc()
	}
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(e.items)
		it := e.items[k]
		// Each operation starts from a collected heap, as a fresh res
		// invocation does, so one analysis's garbage is not collected on
		// the next one's clock.
		runtime.GC()
		if !traced {
			// The submit phase ends when the library has taken the dump
			// in: decoded it and accepted it into a search, which the
			// engine signals with its first event (the base case).
			var accepted time.Time
			onEvent := res.WithObserver(func(res.Event) {
				if accepted.IsZero() {
					accepted = time.Now()
				}
			})
			t0 := time.Now()
			d, err := coredump.Unmarshal(e.items[k].dump)
			if err != nil {
				rr.t.add(failError)
				continue
			}
			r, err := e.analyzers[it.bug].Analyze(ctx, d, append(e.options(it), onEvent)...)
			t2 := time.Now()
			rr.t.add(checkResult(it.want, r, err))
			if !accepted.IsZero() {
				rr.submit = append(rr.submit, ms(accepted.Sub(t0)))
			}
			rr.ttrc = append(rr.ttrc, ms(t2.Sub(t0)))
			rr.classSample(it.class, ms(t2.Sub(t0)))
			rr.firstSight++
			continue
		}
		// Traced: the same operation untraced and staged, in alternating
		// order so drift cancels; both must reach the same cause key.
		var (
			plain   *res.Result
			plainT  time.Duration
			staged  *candidate
			errs    [2]error
			tr      opTrace
			stagedT time.Duration
		)
		runPlain := func() {
			t0 := time.Now()
			plain, errs[0] = e.analyze(ctx, k)
			plainT = time.Since(t0)
		}
		runStaged := func() {
			root := tr.begin("op", -1)
			t0 := time.Now()
			dec := tr.begin("coredump.decode", root)
			d, err := coredump.Unmarshal(e.items[k].dump)
			tr.end(dec)
			if err == nil {
				sa := &stagedAnalysis{
					p:           it.bug.Program(),
					preds:       e.preds[it.bug],
					maxDepth:    wideDepth,
					parallelism: runtime.GOMAXPROCS(0),
					tr:          &tr,
					c:           &acc.lib,
				}
				if it.lbr {
					sa.sources = evidence.Set{evidence.LBR{Mode: breadcrumb.RecordAll}}
				}
				staged, err = sa.analyze(ctx, d)
			}
			tr.end(root)
			stagedT, errs[1] = time.Since(t0), err
		}
		if i%2 == 0 {
			runPlain()
			runtime.GC()
			runStaged()
		} else {
			runStaged()
			runtime.GC()
			runPlain()
		}
		reason := checkResult(it.want, plain, errs[0])
		if reason == "" && (errs[1] != nil || staged == nil || staged.cause.Key() != plain.Cause.Key()) {
			reason = failKeyChanged
		}
		rr.t.add(reason)
		acc.addTrace(&tr)
		acc.untracedWall += plainT
		rr.ttrc = append(rr.ttrc, ms(stagedT))
		rr.firstSight++
	}
	rr.elapsed = time.Since(start)
	if traced {
		rr.layers = map[string]float64{}
		acc.libMetrics(rr.layers)
		rr.layers["unattributed_share"] = ratio(float64(acc.self["op"]), float64(acc.libWall))
	}
	return rr, nil
}
