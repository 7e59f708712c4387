package main

import (
	"runtime/metrics"
	"time"
)

// metricDef is one reported metric: its name and unit. The lists below
// are what the benchmark prints, and match BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ttrc_p50_ms", "ms"},
	{"ttrc_p90_ms", "ms"},
	{"analyses_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_p90_ms", "ms"},
	{"peak_mem_mb", "MB"},
}

// perLayer are the metrics of the traced run, by module.
var perLayer = []metricDef{
	{"core.attempts", "count/op"},
	{"core.feasible_ratio", "ratio"},
	{"core.depth_max", "depth"},
	{"core.search_ms", "ms/op"},
	{"core.step_us.d1-8", "us/attempt"},
	{"core.step_us.d9-32", "us/attempt"},
	{"core.step_us.d33-up", "us/attempt"},
	{"solver.checks", "count/op"},
	{"solver.busy_ms", "ms/op"},
	{"solver.unknown_ratio", "ratio"},
	{"replay.runs", "count/op"},
	{"replay.faithful_ratio", "ratio"},
	{"replay.ms", "ms/op"},
	{"core.concretize_ms", "ms/op"},
	{"rootcause.ms", "ms/op"},
	{"taint.ms", "ms/op"},
	{"checkpoint.decode_us", "us"},
	{"checkpoint.bisect_ms", "ms/op"},
	{"checkpoint.verify_replays", "count/op"},
	{"checkpoint.anchored_ratio", "ratio"},
	{"evidence.decode_us", "us"},
	{"evidence.compile_ms", "ms/op"},
	{"evidence.pruners", "count/op"},
	{"coredump.canonicalize_us", "us"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.disk_hit_ratio", "ratio"},
	{"service.queue_wait_ms", "ms"},
	{"service.analysis_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.journal_appends_per_job", "count/job"},
	{"cluster.proxied_ratio", "ratio"},
	{"cluster.proxy_ms", "ms"},
	{"cluster.replica_puts_per_job", "count/job"},
	{"cluster.replica_put_errors", "count"},
	{"cluster.failovers", "count"},
	{"go.alloc_mb_per_op", "MB/op"},
	{"go.gc_cpu_share", "ratio"},
	{"loadgen.late_p90_ms", "ms"},
	{"unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// layerAcc accumulates a traced run's attribution.
type layerAcc struct {
	lib          libCounts
	self         map[string]time.Duration // self time per layer, over the library ops
	libWall      time.Duration            // wall of the traced library ops
	untracedWall time.Duration            // wall of the same ops untraced
	ckDecode     time.Duration
	ckDecodes    int
	evDecode     time.Duration
	evDecodes    int
	canon        time.Duration
	canons       int
}

func newLayerAcc() *layerAcc { return &layerAcc{self: map[string]time.Duration{}} }

// addTrace folds one traced operation's spans into the per-layer self
// times; the operation's own self time is the unattributed part.
func (a *layerAcc) addTrace(t *opTrace) {
	st := selfTimes(t.spans)
	for i, s := range t.spans {
		a.self[s.Layer] += st[i]
	}
	a.libWall += t.spans[0].End.Sub(t.spans[0].Start)
}

// addReport counts a daemon report's search effort, for workloads whose
// analyses run only inside a daemon.
func (a *layerAcc) addReport(rep report) {
	a.lib.ops++
	a.lib.attempts += rep.Stats.Attempts
	a.lib.feasible += rep.Stats.Feasible
	if rep.Stats.MaxDepth > a.lib.depthMax {
		a.lib.depthMax = rep.Stats.MaxDepth
	}
}

// libMetrics computes the library-layer metrics, per analysis operation.
func (a *layerAcc) libMetrics(m map[string]float64) {
	c := &a.lib
	ops := float64(c.ops)
	perOp := func(d time.Duration) float64 { return ratio(ms(d), ops) }
	m["core.attempts"] = ratio(float64(c.attempts), ops)
	m["core.feasible_ratio"] = ratio(float64(c.feasible), float64(c.attempts))
	m["core.depth_max"] = float64(c.depthMax)
	m["core.search_ms"] = perOp(a.self["core.search"])
	for b, name := range stepBands {
		m["core.step_us."+name] = ratio(float64(c.bandWall[b])/float64(time.Microsecond), float64(c.bandAttempts[b]))
	}
	checks := float64(c.solverChecks.Load())
	m["solver.checks"] = ratio(checks, ops)
	m["solver.busy_ms"] = perOp(time.Duration(c.solverNS.Load()))
	m["solver.unknown_ratio"] = ratio(float64(c.solverUnknown.Load()), checks)
	m["replay.runs"] = ratio(float64(c.replayRuns), ops)
	m["replay.faithful_ratio"] = ratio(float64(c.replayMatches), float64(c.replayRuns))
	m["replay.ms"] = perOp(a.self["replay"])
	m["core.concretize_ms"] = perOp(a.self["core.concretize"])
	m["rootcause.ms"] = perOp(a.self["rootcause"])
	m["taint.ms"] = perOp(a.self["taint"])
	m["checkpoint.decode_us"] = ratio(float64(a.ckDecode)/float64(time.Microsecond), float64(a.ckDecodes))
	m["checkpoint.bisect_ms"] = ratio(ms(a.self["checkpoint.bisect"]), float64(c.ringOps))
	m["checkpoint.verify_replays"] = ratio(float64(c.verifies), float64(c.ringOps))
	m["checkpoint.anchored_ratio"] = ratio(float64(c.anchored), float64(c.ringOps))
	m["evidence.decode_us"] = ratio(float64(a.evDecode)/float64(time.Microsecond), float64(a.evDecodes))
	m["evidence.compile_ms"] = perOp(a.self["evidence.compile"])
	m["evidence.pruners"] = ratio(float64(c.pruners), ops)
	m["coredump.canonicalize_us"] = ratio(float64(a.canon)/float64(time.Microsecond), float64(a.canons))
	m["trace.overhead_share"] = ratio(float64(a.libWall), float64(a.untracedWall)) - 1
	if a.untracedWall == 0 {
		m["trace.overhead_share"] = 0
	}
}

// daemonMetrics computes the service, store and cluster metrics from two
// scrapes bracketing the measured phase. requests is how many
// submission requests the workload sent.
func daemonMetrics(m map[string]float64, before, after scrape, requests int) {
	m["store.get_us"] = 1e6 * histMean(before, after, "resd_store_op_seconds", "op", "get")
	m["store.put_us"] = 1e6 * histMean(before, after, "resd_store_op_seconds", "op", "put")
	m["store.disk_hit_ratio"] = ratio(delta(before, after, "resd_store_disk_hits_total"),
		delta(before, after, "resd_store_op_seconds_count", "op", "get"))
	m["service.queue_wait_ms"] = 1e3 * histMean(before, after, "resd_queue_wait_seconds")
	m["service.analysis_ms"] = 1e3 * histMean(before, after, "resd_analysis_seconds")
	hits := delta(before, after, "resd_cache_hits_total")
	m["service.cache_hit_ratio"] = ratio(hits, hits+delta(before, after, "resd_cache_misses_total"))
	m["service.coalesced"] = delta(before, after, "resd_coalesced_total")
	m["service.rejected"] = delta(before, after, "resd_rejected_total")
	submitted := delta(before, after, "resd_submitted_total")
	m["service.journal_appends_per_job"] = ratio(delta(before, after, "resd_journal_appends_total"), submitted)
	m["cluster.proxied_ratio"] = ratio(delta(before, after, "resd_cluster_proxied_total"), float64(requests))
	m["cluster.proxy_ms"] = 1e3 * histMean(before, after, "resd_cluster_proxy_seconds")
	m["cluster.replica_puts_per_job"] = ratio(delta(before, after, "resd_cluster_replica_puts_total"),
		delta(before, after, "resd_completed_total"))
	m["cluster.replica_put_errors"] = delta(before, after, "resd_cluster_replica_put_errors_total")
	m["cluster.failovers"] = delta(before, after, "resd_cluster_failovers_total")
}

// runtimeSample reads the Go runtime counters the go.* metrics use.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

func runtimeMetrics(m map[string]float64, before, after runtimeSample, ops int) {
	m["go.alloc_mb_per_op"] = ratio((after.allocBytes-before.allocBytes)/1e6, float64(ops))
	m["go.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
}
