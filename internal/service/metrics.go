package service

import (
	"maps"
	"runtime"
	"slices"

	"res/internal/obs"
)

// MetricsSnapshot renders every service metric as an obs.Snapshot —
// the single source of truth behind GET /metrics (Prometheus text via
// obs.WriteProm) and cluster federation (obs.NodeSnapshot JSON, merged
// by GET /v1/cluster/metrics). It is the one place a service counter
// gets its series name and help text. Counters are read one at a time,
// not as one locked cut: a scrape taken while jobs run may see one
// counter move before another.
func (s *Service) MetricsSnapshot() obs.Snapshot {
	s.mu.Lock()
	jobs, buckets := len(s.jobs), len(s.buckets)
	ids := slices.Sorted(maps.Keys(s.shards))
	shards := make([]*shard, len(ids))
	for i, id := range ids {
		shards[i] = s.shards[id]
	}
	kinds := counterFamily("resd_evidence_sources_total",
		"Evidence sources attached to accepted submissions, per kind.", "kind", s.evidenceKinds)
	verdicts := counterFamily("resd_fixverify_verdicts_total",
		"Completed fix verifications, per verdict.", "verdict", s.fixverifyVerdicts)
	var fixverified uint64
	for _, n := range s.fixverifyVerdicts {
		fixverified += n
	}
	s.mu.Unlock()

	// One pass over the shards builds the three per-shard families; each
	// is appended whole below, because series sharing a name must be
	// contiguous in the exposition.
	var queued int
	var shardDepth, shardSubmitted, shardCached obs.Snapshot
	for i, sh := range shards {
		depth := len(sh.queue)
		queued += depth
		shardDepth = append(shardDepth, obs.Gauge("resd_shard_queue_depth", "Dumps queued per program shard.",
			float64(depth)).With("program", ids[i], "name", sh.name))
		shardSubmitted = append(shardSubmitted, obs.Counter("resd_shard_submitted_total", "Dumps accepted per program shard.",
			float64(sh.submitted.Load())).With("program", ids[i], "name", sh.name))
		shardCached = append(shardCached, obs.Counter("resd_shard_cached_total", "Cache-hit responses per program shard.",
			float64(sh.cached.Load())).With("program", ids[i], "name", sh.name))
	}
	hits, misses, coalesced := s.cacheHits.Load(), s.cacheMisses.Load(), s.coalesced.Load()
	var hitRate float64
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	st := s.store.Stats()
	var js JournalStats
	if s.cfg.Journal != nil {
		js = s.cfg.Journal.Stats()
	}
	snap := obs.Snapshot{
		obs.Gauge("resd_queue_depth", "Dumps queued across all shards.", float64(queued)),
		obs.Counter("resd_submitted_total", "Dumps accepted (fresh, cached, or coalesced).", float64(hits+misses+coalesced)),
		obs.Counter("resd_completed_total", "Analyses finished successfully.", float64(s.completed.Load())),
		obs.Counter("resd_failed_total", "Analyses that failed.", float64(s.failed.Load())),
		obs.Counter("resd_canceled_total", "Jobs canceled during drain.", float64(s.canceled.Load())),
		obs.Counter("resd_rejected_total", "Submissions rejected by backpressure.", float64(s.rejected.Load())),
		obs.Counter("resd_coalesced_total", "Duplicate submissions merged onto in-flight jobs.", float64(coalesced)),
		obs.Counter("resd_cache_hits_total", "Submissions served from the result store.", float64(hits)),
		obs.Counter("resd_cache_misses_total", "Submissions that required fresh analysis.", float64(misses)),
		obs.Gauge("resd_cache_hit_rate", "cache_hits / (cache_hits + cache_misses).", hitRate),
		obs.Gauge("resd_store_entries", "Result-store memory-tier population.", float64(st.Entries)),
		obs.Counter("resd_store_disk_hits_total", "Store gets answered by the disk tier.", float64(st.DiskHits)),
		obs.Counter("resd_store_evictions_total", "LRU evictions from the store memory tier.", float64(st.Evictions)),
		obs.Gauge("resd_buckets", "Distinct crash-dedup buckets.", float64(buckets)),
		obs.Gauge("resd_programs", "Registered program shards.", float64(len(shards))),
		obs.Gauge("resd_jobs", "Job records retained in memory.", float64(jobs)),
		obs.Counter("resd_jobs_evicted_total", "Terminal job records evicted by the MaxJobs/JobRetention bounds.", float64(s.jobsEvicted.Load())),
		obs.Counter("resd_jobs_retried_total", "Failed analyses re-queued by the retry policy.", float64(s.retried.Load())),
		obs.Counter("resd_evidence_attached_total", "Accepted submissions carrying an evidence attachment.", float64(s.evidenceAttached.Load())),
	}
	snap = append(snap, kinds...)
	snap = append(snap, obs.Counter("resd_fixverify_total", "Completed fix verifications.", float64(fixverified)))
	snap = append(snap, verdicts...)
	snap = append(snap,
		obs.Counter("resd_minimize_total", "Completed minimizations.", float64(s.minimizeTotal.Load())),
		obs.Counter("resd_minimize_runs_total", "Analyzer re-runs spent by minimizations.", float64(s.minimizeRuns.Load())),
		obs.Counter("resd_minimize_reductions_total", "Reductions kept by minimizations (cause key preserved).", float64(s.minimizeReductions.Load())),
		obs.Counter("resd_checkpoint_attached_total", "Accepted submissions carrying a checkpoint-ring attachment.", float64(s.checkpointAttached.Load())),
		obs.Counter("resd_checkpoint_anchored_total", "Completed analyses anchored on a recorded checkpoint.", float64(s.checkpointAnchored.Load())),
		obs.Counter("resd_attachments_degraded_total", "Corrupt evidence/checkpoint attachments dropped at submit; the analysis ran without them.", float64(s.attachmentsDegraded.Load())),
		obs.Counter("resd_journal_corrupt_entries_total", "Corrupt mid-file journal entries skipped during replay.", float64(js.CorruptEntries)),
		obs.Counter("resd_store_replica_hits_total", "Store gets answered by the cluster read-through fetch.", float64(st.ReplicaHits)),
		obs.Counter("resd_journal_appends_total", "Entries appended to the job journal.", float64(js.Appends)),
		obs.Counter("resd_journal_compactions_total", "Journal compactions into a snapshot.", float64(js.Compactions)),
		obs.Gauge("resd_journal_replayed", "Journal entries replayed at startup.", float64(s.journalReplayed.Load())),
		obs.Counter("resd_events_dropped_total", "Progress events dropped by slow NDJSON watchers.", float64(s.eventsDropped.Load())),
		obs.Gauge("resd_build_info", "Build metadata; the value is always 1.", 1).
			With("version", obs.Version, "go_version", runtime.Version()),
		obs.HistogramMetric("resd_analysis_seconds", "End-to-end analysis wall time.", s.histAnalysis.Snapshot()),
		obs.HistogramMetric("resd_queue_wait_seconds", "Time a job waited on its shard queue before analysis started.", s.histQueueWait.Snapshot()),
	)
	for _, band := range obs.DepthBands {
		snap = append(snap, obs.HistogramMetric("resd_solver_depth_seconds",
			"Solver time per frontier depth, banded by depth.",
			s.histSolver[band].Snapshot()).With("depth_band", band))
	}
	snap = append(snap, obs.HistogramMetric("resd_bisect_replay_seconds",
		"Forward-replay time per checkpoint-bisect verification probe.", s.histBisect.Snapshot()))
	for _, op := range []string{"get", "put"} {
		snap = append(snap, obs.HistogramMetric("resd_store_op_seconds",
			"Result-store operation latency, per operation.",
			s.histStoreOp[op].Snapshot()).With("op", op))
	}
	snap = append(snap, shardDepth...)
	snap = append(snap, shardSubmitted...)
	snap = append(snap, shardCached...)
	snap = append(snap, obs.RuntimeMetrics(s.start)...)
	return snap
}

// counterFamily renders one per-label counter family, one series per
// label value in sorted order. The caller holds s.mu while counts is a
// service map.
func counterFamily(name, help, label string, counts map[string]uint64) obs.Snapshot {
	snap := make(obs.Snapshot, 0, len(counts))
	for _, v := range slices.Sorted(maps.Keys(counts)) {
		snap = append(snap, obs.Counter(name, help, float64(counts[v])).With(label, v))
	}
	return snap
}
