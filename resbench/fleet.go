package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"res/internal/cluster"
	"res/internal/service"
	"res/internal/store"
)

// Fleet-ingest shape. The working set (a result and a dump blob per
// tuple on both nodes, with two replicas) is several times the memory
// tier, so the Zipf tail is served from disk.
const (
	fleetWorking      = 96
	fleetCacheEntries = 48
	fleetZipfS        = 1.1
	fleetBatchSize    = 4
	// fleetRate is the arrival rate in requests/s, about 30% of the
	// saturation knee (~500 requests/s) measured for this mix; nearer
	// the knee, queueing amplified the host's speed swings (see
	// WORKLOADS.md).
	fleetRate = 150
)

// fleetMix is one cycle of request kinds: mostly single resubmissions,
// one batch of resubmissions, one first-sight dump.
var fleetMix = smoothOrder([]int{18, 1, 1})

const (
	reqResubmit = iota
	reqBatch
	reqFresh
)

// fleetEnv is a two-node in-process cluster with two replicas and a disk
// store and journal per node, loaded by an open-loop generator.
type fleetEnv struct {
	nodes   []*node
	clients []*service.Client
	hc      *http.Client
	progs   []program
	owner   []int // per program: index of the owning node
	ws      []tuple
	first   [][]byte // first answer (report bytes) per working-set tuple
	pool    []tuple
	reqs    []fleetReq // the request stream, one per scheduled send
}

func setupFleet(ctx context.Context, seed int64, dur time.Duration, dir string) (env, string, error) {
	fresh := int(math.Ceil(fleetRate*dur.Seconds()*1.2/float64(len(fleetMix)))) + 8
	progs, ws, pool, hash, err := fleetInputs(seed, fleetWorking, fresh)
	if err != nil {
		return nil, "", err
	}
	nodes, err := startNodes(dir, 2, daemonConfig{cacheEntries: fleetCacheEntries, replicas: 2})
	if err != nil {
		return nil, "", err
	}
	e := &fleetEnv{nodes: nodes, hc: &http.Client{}, progs: progs, ws: ws, pool: pool}
	for _, nd := range nodes {
		e.clients = append(e.clients, service.NewClient(nd.url))
	}
	if err := e.prepare(ctx); err != nil {
		e.close()
		return nil, "", err
	}
	// The request stream is part of the inputs: its hash joins theirs.
	e.reqs = e.plan(seed, int(fleetRate*dur.Seconds()))
	ih := newInputHasher()
	ih.str(hash)
	for _, q := range e.reqs {
		ih.str(fmt.Sprint(q.kind, q.items, q.prog, q.node == e.owner[q.prog]))
	}
	return e, ih.sum(), nil
}

// prepare registers the programs, learns their owners, and analyzes the
// working set on its owners, keeping each first answer.
func (e *fleetEnv) prepare(ctx context.Context) error {
	if err := registerPrograms(ctx, e.clients[0], e.progs); err != nil {
		return err
	}
	for _, p := range e.progs {
		var ri cluster.RouteInfo
		if err := getJSON(ctx, e.hc, e.nodes[0].url+"/v1/cluster/route/"+p.id, &ri); err != nil {
			return err
		}
		owner := -1
		for i, nd := range e.nodes {
			if nd.url == ri.Owner {
				owner = i
			}
		}
		if owner < 0 {
			return fmt.Errorf("route %s: owner %q is not a node", p.bug.Name, ri.Owner)
		}
		e.owner = append(e.owner, owner)
	}
	e.first = make([][]byte, len(e.ws))
	errs := make([]error, len(e.ws))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0)*2)
	for i, t := range e.ws {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c := e.clients[e.owner[t.prog]]
			job, err := c.SubmitWithOptions(ctx, e.progs[t.prog].id, t.dump, t.opts)
			if err == nil && !job.Status.Terminal() {
				job, err = c.WatchResult(ctx, job.ID, nil)
			}
			if err == nil && job.Status != service.StatusDone {
				err = fmt.Errorf("status %s: %s", job.Status, job.Error)
			}
			if err == nil {
				if _, reason := checkReport(t.want, job.Report); reason != "" {
					err = fmt.Errorf("%s", reason)
				}
			}
			if err != nil {
				errs[i] = fmt.Errorf("warm-up %s: %w", t.class, err)
				return
			}
			e.first[i] = job.Report
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (e *fleetEnv) close() { stopNodes(e.nodes) }

// fleetReq is one planned request.
type fleetReq struct {
	kind  int
	items []int // working-set indexes (resubmissions) or one pool index (fresh)
	prog  int
	node  int
}

// plan lays out the request stream for n requests: kinds by fleetMix,
// resubmissions by Zipf popularity over the working set, and two fifths
// of requests sent to the program's non-owner.
func (e *fleetEnv) plan(seed int64, n int) []fleetReq {
	r := rand.New(rand.NewSource(seed*7919 + 17))
	zipf := rand.NewZipf(r, fleetZipfS, 1, uint64(len(e.ws)-1))
	// A batch shares one set of options, so batches draw from the tuples
	// that carry none, grouped by program.
	var plain []int
	byProg := map[int][]int{}
	for i, t := range e.ws {
		if t.opts == nil {
			plain = append(plain, i)
			byProg[t.prog] = append(byProg[t.prog], i)
		}
	}
	plainZipf := rand.NewZipf(r, fleetZipfS, 1, uint64(len(plain)-1))
	out := make([]fleetReq, n)
	fresh := 0
	for i := range out {
		q := fleetReq{kind: fleetMix[i%len(fleetMix)]}
		switch q.kind {
		case reqResubmit:
			w := int(zipf.Uint64())
			q.items, q.prog = []int{w}, e.ws[w].prog
		case reqBatch:
			w := plain[plainZipf.Uint64()]
			q.prog = e.ws[w].prog
			same := byProg[q.prog]
			q.items = []int{w}
			for len(q.items) < fleetBatchSize {
				q.items = append(q.items, same[r.Intn(len(same))])
			}
		case reqFresh:
			q.items, q.prog = []int{fresh % len(e.pool)}, e.pool[fresh%len(e.pool)].prog
			fresh++
		}
		q.node = e.owner[q.prog]
		out[i] = q
	}
	// Two requests in every five go to the program's non-owner, at seeded
	// positions: the proxied share is the same on every run, and the
	// median submit latency falls inside the direct requests rather than
	// on the edge between direct and proxied ones, as it would at half.
	for b := 0; b < n; b += 5 {
		for _, j := range r.Perm(5)[:2] {
			if b+j < n {
				out[b+j].node = 1 - out[b+j].node
			}
		}
	}
	return out
}

// openLoop sends n requests due at start, start+interval, ... with at
// most slots in flight: a request that comes due while every slot is
// busy waits for one, and that wait is part of its latency, because
// latency runs from when the request was due. do runs on its own
// goroutine and calls release once its slot may be reused. openLoop
// returns when every do has returned, with each request's due and send
// times.
func openLoop(start time.Time, n int, interval time.Duration, slots int, do func(i int, release func())) (sched, sent []time.Time) {
	sched, sent = make([]time.Time, n), make([]time.Time, n)
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sched[i] = start.Add(time.Duration(i) * interval)
		if d := time.Until(sched[i]); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent[i] = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			release := func() { once.Do(func() { <-sem }) }
			defer release()
			do(i, release)
		}()
	}
	wg.Wait()
	return sched, sent
}

// fleetOutcome is what one request produced.
type fleetOutcome struct {
	sched, sent time.Time
	responded   time.Time
	resultAt    time.Time // fresh requests: when the result became readable
	reasons     []string  // one per operation (batch items count singly)
	rep         *report
}

func (e *fleetEnv) run(ctx context.Context, dur time.Duration, traced bool) (*runResult, error) {
	rr := &runResult{}
	var (
		acc    *layerAcc
		before scrape
		err    error
	)
	if traced {
		acc = newLayerAcc()
		if before, err = scrapeNodes(ctx, e.hc, e.nodes); err != nil {
			return nil, err
		}
	}
	plan := e.reqs
	if len(plan) == 0 {
		return nil, fmt.Errorf("fleet-ingest: no requests at %d requests/s over %v", fleetRate, dur)
	}
	outs := make([]fleetOutcome, len(plan))
	var canonMu sync.Mutex
	start := time.Now().Add(20 * time.Millisecond)
	interval := time.Second / fleetRate
	sched, sent := openLoop(start, len(plan), interval, runtime.NumCPU(), func(i int, release func()) {
		// In the traced run the requests of every other cycle are
		// instrumented: the benchmark times the coredump layer's
		// canonicalization of the dump it sends, and the other cycles are
		// the untraced reference for the tracing overhead.
		if traced && instrumented(i) {
			t := e.reqTuple(plan[i], 0)
			t0 := time.Now()
			store.CanonicalizeDump(t.dump)
			d := time.Since(t0)
			canonMu.Lock()
			acc.canon += d
			acc.canons++
			canonMu.Unlock()
		}
		e.do(ctx, plan[i], &outs[i], release)
	})
	for i := range outs {
		outs[i].sched, outs[i].sent = sched[i], sent[i]
	}
	var last time.Time
	var wallSum time.Duration
	var ref, inst []float64 // submit latency: untraced reference, instrumented
	for i, o := range outs {
		for _, reason := range o.reasons {
			rr.t.add(reason)
		}
		rr.late = append(rr.late, ms(lateness(o.sched, o.sent)))
		if o.responded.IsZero() {
			continue
		}
		l := openLoopLatency(o.sched, o.responded)
		rr.submit = append(rr.submit, ms(l))
		if instrumented(i) {
			inst = append(inst, ms(l))
		} else {
			ref = append(ref, ms(l))
		}
		wallSum += l
		end := o.responded
		if !o.resultAt.IsZero() {
			rr.ttrc = append(rr.ttrc, ms(openLoopLatency(o.sched, o.resultAt)))
			rr.classSample(e.reqTuple(plan[i], 0).class, ms(openLoopLatency(o.sched, o.resultAt)))
			rr.firstSight++
			wallSum += o.resultAt.Sub(o.responded)
			end = o.resultAt
			if traced && o.rep != nil {
				acc.addReport(*o.rep)
			}
		}
		if end.After(last) {
			last = end
		}
	}
	rr.elapsed = last.Sub(start)
	if traced {
		after, err := scrapeNodes(ctx, e.hc, e.nodes)
		if err != nil {
			return nil, err
		}
		rr.layers = map[string]float64{}
		acc.libMetrics(rr.layers)
		daemonMetrics(rr.layers, before, after, len(plan))
		rr.layers["solver.busy_ms"] = 1e3 * ratio(delta(before, after, "resd_solver_depth_seconds_sum"), float64(acc.lib.ops))
		rr.layers["loadgen.late_p90_ms"] = percentile(rr.late, 0.9)
		rr.layers["trace.overhead_share"] = ratio(median(inst), median(ref)) - 1
		covered := delta(before, after, "resd_cluster_proxy_seconds_sum") +
			delta(before, after, "resd_store_op_seconds_sum") +
			delta(before, after, "resd_queue_wait_seconds_sum") +
			delta(before, after, "resd_analysis_seconds_sum") +
			ratio(acc.canon.Seconds(), float64(acc.canons))*float64(len(plan))
		rr.layers["unattributed_share"] = math.Max(0, 1-ratio(covered, wallSum.Seconds()))
	}
	return rr, nil
}

// instrumented reports whether the traced run instruments request i.
// It alternates whole cycles of fleetMix, so both halves carry the same
// request kinds and the same proxied share (two in every five, and a
// cycle is four fives): their latencies differ by the tracing cost, not
// by which kinds land in which half.
func instrumented(i int) bool { return (i/len(fleetMix))%2 == 1 }

// reqTuple is the k-th tuple a request carries.
func (e *fleetEnv) reqTuple(q fleetReq, k int) tuple {
	if q.kind == reqFresh {
		return e.pool[q.items[k]]
	}
	return e.ws[q.items[k]]
}

// do sends one request, releases its in-flight slot when the POST has
// answered, and for a first-sight dump waits for the result.
func (e *fleetEnv) do(ctx context.Context, q fleetReq, o *fleetOutcome, release func()) {
	c := e.clients[q.node]
	id := e.progs[q.prog].id
	if q.kind == reqBatch {
		req := service.BatchSubmitRequest{ProgramID: id}
		for k := range q.items {
			req.Dumps = append(req.Dumps, e.reqTuple(q, k).dump)
		}
		items, err := c.SubmitBatch(ctx, req)
		o.responded = time.Now()
		release()
		if err != nil || len(items) != len(q.items) {
			reason := failError
			if err != nil {
				reason = failReason(err)
			}
			for range q.items {
				o.reasons = append(o.reasons, reason)
			}
			return
		}
		for k, it := range items {
			switch {
			case it.Error != "":
				o.reasons = append(o.reasons, failError)
			default:
				o.reasons = append(o.reasons, e.resubmitted(it.Job, q.items[k]))
			}
		}
		return
	}
	t := e.reqTuple(q, 0)
	job, err := c.SubmitWithOptions(ctx, id, t.dump, t.opts)
	o.responded = time.Now()
	release()
	if err != nil {
		o.responded = time.Time{}
		o.reasons = append(o.reasons, failReason(err))
		return
	}
	if q.kind == reqResubmit {
		o.reasons = append(o.reasons, e.resubmitted(job, q.items[0]))
		return
	}
	if !job.Status.Terminal() {
		if job, err = c.WatchResult(ctx, job.ID, nil); err != nil {
			o.reasons = append(o.reasons, failError)
			return
		}
	}
	if job.Status != service.StatusDone || job.Cached {
		o.reasons = append(o.reasons, failError)
		return
	}
	o.resultAt = time.Now()
	rep, reason := checkReport(t.want, job.Report)
	o.rep = &rep
	o.reasons = append(o.reasons, reason)
}

// resubmitted checks a resubmission's answer: served from the store, and
// byte-identical to the first answer whichever node served it.
func (e *fleetEnv) resubmitted(job service.Job, w int) string {
	switch {
	case job.Status != service.StatusDone:
		return failError
	case job.Partial:
		return failPartial
	case !bytes.Equal(job.Report, e.first[w]):
		return failDiffers
	}
	return ""
}
