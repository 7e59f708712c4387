package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"time"

	"res/internal/obs"
	"res/internal/service"
	"res/internal/store"
)

// Handler returns the node's cluster-aware HTTP API. It serves the same
// public surface as a single resd (the cluster is invisible to clients —
// any node answers any request), plus the cluster's own endpoints:
//
//	GET /v1/cluster                     membership + per-peer health
//	GET /v1/cluster/route/{program}     a program's owner + failover order
//	GET /v1/cluster/metrics             federated cluster-wide metrics
//	GET /internal/v1/metrics            this node's snapshot (JSON), the
//	                                    unit the federation merges
//	GET /internal/v1/trace/{id}         this node's trace fragments for a
//	                                    job (service + routing layer), the
//	                                    unit the trace stitcher merges
//	GET /internal/v1/store/{id}         replication: serve one artifact
//	PUT /internal/v1/store/{id}         replication: accept one artifact
//
// Routing: dump submissions are proxied to the program's rendezvous
// owner (failing over down the preference order when the owner is
// unreachable), result lookups try the local service, then the local
// store's replica tier, then the peers, and bucket listings merge the
// whole cluster's view. Trace lookups stitch: every node's fragments
// for the job are gathered and merged into one tree.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/dumps", n.routeSubmit)
	mux.HandleFunc("POST /v1/dumps/batch", n.routeSubmit)
	mux.HandleFunc("POST /v1/fixes", n.routeSubmit)
	mux.HandleFunc("POST /v1/jobs/{id}/minimize", n.handleMinimize)
	mux.HandleFunc("POST /v1/programs", n.handleRegister)
	mux.HandleFunc("GET /v1/results/{id}", n.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", n.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", n.handleJobTrace)
	mux.HandleFunc("GET /v1/buckets", n.handleBuckets)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("GET /v1/cluster", n.handleStatus)
	mux.HandleFunc("GET /v1/cluster/route/{program}", n.handleRoute)
	mux.HandleFunc("GET /v1/cluster/metrics", n.handleClusterMetrics)
	mux.HandleFunc("GET /internal/v1/metrics", n.handleNodeMetrics)
	mux.HandleFunc("GET /internal/v1/trace/{id}", n.handleTraceFragments)
	mux.HandleFunc("GET /internal/v1/store/{id}", n.handleStoreGet)
	mux.HandleFunc("PUT /internal/v1/store/{id}", n.handleStorePut)
	mux.HandleFunc("GET /internal/v1/store-index", n.handleStoreIndex)
	mux.HandleFunc("POST /internal/v1/repair", n.handleRepair)
	mux.Handle("/", n.local)
	return n.recoverPanics(mux)
}

// recoverPanics converts a routing-layer panic into a 500 after dumping
// the flight recorder, mirroring the service's own recovery for the
// handlers the cluster mux serves itself.
func (n *Node) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil || rec == http.ErrAbortHandler {
				return
			}
			slog.Error("cluster handler panic", "node", n.self, "path", r.URL.Path, "panic", fmt.Sprint(rec))
			n.fr.Record(obs.FlightEvent{Kind: "panic", Msg: fmt.Sprintf("%s: %v", r.URL.Path, rec)})
			n.fr.Dump(os.Stderr, "panic in "+r.URL.Path)
			writeErr(w, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{Error: fmt.Sprintf(format, args...)})
}

// forwarded reports whether the request already made an intra-cluster
// hop and must be served locally (the loop guard).
func forwarded(r *http.Request) bool { return r.Header.Get(forwardedHeader) != "" }

// serveLocal replays a buffered request body of size bytes into the
// local service.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body io.Reader, size int64) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(body)
	r2.ContentLength = size
	n.local.ServeHTTP(w, r2)
}

// maxRouteBody mirrors the service's own request bound (small control
// endpoints that never carry a dump keep this fixed cap).
const maxRouteBody = 64 << 20

// routeSubmit is the dump ingestion router, shared by the single and
// batch endpoints (both route on the same program head fields): pick the
// program's owner by rendezvous hash, serve locally if that is us,
// otherwise proxy — failing over down the preference order past down or
// unreachable nodes. The body is spooled, not buffered: a big dump
// spills to a temp file and streams to the owner, so the router's memory
// cost per request is bounded regardless of dump size, and the spool's
// rewind makes the body replayable for failover after a dead owner ate
// the first attempt.
func (n *Node) routeSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := newSpool(http.MaxBytesReader(w, r.Body, n.maxBody), n.spoolDir)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	defer sp.Close()
	if sp.spilled() {
		n.spooledBytes.Add(uint64(sp.Size()))
	}
	if forwarded(r) {
		// The proxying node already routed (and traced) this hop; the
		// traceparent header it set rides into the local service intact.
		n.serveLocal(w, r, sp.NewReader(), sp.Size())
		return
	}
	head, err := parseSubmitHead(sp.NewReader())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	fp, err := n.programFingerprint(head.ProgramID, head.ProgramSource)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// This node is the ingest edge: adopt the client's trace context when
	// it sent one, mint the request's trace ID otherwise, and record the
	// routing decision as this node's fragment of the distributed trace.
	tr := obs.NewTraceCtx("route", obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)), n.self)
	tr.Root().SetStr("program", fp)
	if sp.spilled() {
		tr.Root().SetStr("spooled", "true")
	}
	n.routeToOwner(w, r, sp, fp, tr)
}

// recordRouteFrag files the ingest edge's trace fragment once the
// response has been written, keyed by the job ID the serving node
// reported in its response headers. Cache hits are skipped — their
// trace endpoint 404s by design, and a routing fragment would turn
// that into a misleading one-span "trace".
func (n *Node) recordRouteFrag(w http.ResponseWriter, tr *obs.Trace) {
	if w.Header().Get(service.CachedHeader) == "true" {
		return
	}
	if jobID := w.Header().Get(service.JobHeader); jobID != "" {
		n.frags.Add(jobID, tr.Finish())
		slog.Info("submission routed", "trace_id", tr.ID(), "job_id", jobID, "node", n.self)
	}
}

// submitHead is the routing-relevant prefix of a submission body.
type submitHead struct {
	ProgramID     string
	ProgramSource string
}

// parseSubmitHead extracts the program fields from a submission body by
// streaming tokens instead of unmarshaling the whole object — the body
// may carry a dump orders of magnitude larger than the head, and routing
// must not materialize it. Our own client marshals the program fields
// before the dump (struct field order), so the scan normally stops long
// before the payload; a client that reorders fields still parses, just
// slower.
func parseSubmitHead(r io.Reader) (submitHead, error) {
	var h submitHead
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return h, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return h, fmt.Errorf("request body is not a JSON object")
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return h, err
		}
		key, _ := keyTok.(string)
		// Once a routing key is known, stop before the payload fields —
		// decoding a 100MB base64 dump token to discard it is the exact
		// cost this parser exists to avoid.
		if (key == "dump" || key == "dumps" || key == "evidence" || key == "checkpoints" || key == "patch") &&
			(h.ProgramID != "" || h.ProgramSource != "") {
			return h, nil
		}
		switch key {
		case "program_id":
			if err := dec.Decode(&h.ProgramID); err != nil {
				return h, err
			}
		case "program_source":
			if err := dec.Decode(&h.ProgramSource); err != nil {
				return h, err
			}
		default:
			if err := skipJSONValue(dec); err != nil {
				return h, err
			}
		}
		if h.ProgramID != "" {
			// program_id wins over program_source in routing; no later
			// field can change the decision.
			return h, nil
		}
	}
	return h, nil
}

// skipJSONValue consumes one JSON value (scalar, object, or array) from
// the decoder.
func skipJSONValue(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	d, ok := tok.(json.Delim)
	if !ok || (d != '{' && d != '[') {
		return nil
	}
	depth := 1
	for depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
		}
	}
	return nil
}

// routeToOwner walks the key's preference order: self serves locally, a
// routable peer gets a proxy attempt, down nodes are skipped, and
// transport failures and draining targets (503) fail over to the next
// candidate. A request served by anyone but order[0] counts as a
// failover. Every attempt — the failed ones included — gets a span in
// the routing fragment tr, and the serving hop's traceparent rides the
// forwarded request so the serving node's fragment parents under it.
func (n *Node) routeToOwner(w http.ResponseWriter, r *http.Request, sp *spool, programFP string, tr *obs.Trace) {
	order := rank(n.peers, programFP)
	var lastErr string
	for i, target := range order {
		if target == n.self {
			if i > 0 {
				n.failovers.Add(1)
			}
			span := tr.Root().Child("local")
			span.SetInt("attempt", int64(i))
			r.Header.Set(obs.TraceparentHeader, tr.Context(span).Traceparent())
			n.serveLocal(w, r, sp.NewReader(), sp.Size())
			span.End()
			n.recordRouteFrag(w, tr)
			return
		}
		if !n.prober.routable(target) {
			lastErr = target + " is down"
			continue
		}
		span := tr.Root().Child("proxy")
		span.SetStr("peer", target)
		span.SetInt("attempt", int64(i))
		ok, errMsg := n.proxy(w, r, sp, target, tr.Context(span).Traceparent())
		span.End()
		if ok {
			if i > 0 {
				n.failovers.Add(1)
			}
			n.recordRouteFrag(w, tr)
			return
		}
		span.SetStr("error", errMsg)
		lastErr = errMsg
	}
	writeErr(w, http.StatusBadGateway, "no live node for program %s: %s", programFP, lastErr)
}

// proxy relays the spooled request to target. The bool reports whether
// the response was delivered; false means the caller may fail over (the
// target was unreachable or draining — nothing was written to w). The
// spool's rewind is what makes the failover safe: a target that died
// mid-transfer consumed a throwaway reader, not the body. traceparent,
// when non-empty, carries the routing span's context to the target; the
// relayed job/trace/cached headers tell the ingest edge (and the client)
// the job identity this hop produced.
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, sp *spool, target, traceparent string) (bool, string) {
	t0 := time.Now()
	defer func() { n.histProxy.Observe(time.Since(t0).Seconds()) }()
	resp, err := n.peerCall(r.Context(), n.hc, r.Method, target, r.URL.Path, sp.NewReader(), traceparent)
	if err != nil {
		return false, err.Error()
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The owner is draining: it answered, but will not take the work.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		n.prober.observe(target, false, resp.Status)
		return false, resp.Status
	}
	n.prober.observe(target, true, "")
	n.relay(w, resp)
	return true, ""
}

// relay copies a peer's answer to w — status, content type, the job,
// trace and cached headers, and body — closes it, and counts the request
// as proxied.
func (n *Node) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	n.proxied.Add(1)
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	for _, h := range []string{service.JobHeader, service.TraceHeader, service.CachedHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// relayFromPeers offers r, with body, to each live peer in turn and
// relays the first answer accept admits; the others are discarded. It
// reports whether an answer was relayed.
func (n *Node) relayFromPeers(w http.ResponseWriter, r *http.Request, hc *http.Client, body []byte, accept func(status int) bool) bool {
	for _, peer := range n.live(n.peers) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		resp, err := n.peerCall(r.Context(), hc, r.Method, peer, r.URL.Path, rd, "")
		if err != nil {
			continue
		}
		if accept(resp.StatusCode) {
			n.relay(w, resp)
			return true
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return false
}

// handleRegister registers the program locally and broadcasts the
// registration to every routable peer. Registration is content-keyed
// and idempotent, so the broadcast just pre-warms shards fleet-wide —
// any node can then accept the program's dumps by ID even after a
// failover (submissions carrying source never needed the broadcast).
func (n *Node) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouteBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if !forwarded(r) {
		for _, peer := range n.live(n.peers) {
			resp, err := n.peerCall(r.Context(), n.hc, http.MethodPost, peer, "/v1/programs", bytes.NewReader(body), "")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}
	n.serveLocal(w, r, bytes.NewReader(body), int64(len(body)))
}

// handleResult answers a result poll from, in order: the local service
// (it ran or restored the job — the record carries the full metadata:
// bucket, program, timings), then the peers (one of them ran it), and
// finally the local store's replica tier — a bare but correct answer
// that keeps results readable even when every node that knew the job's
// metadata is gone.
func (n *Node) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if job, ok := n.svc.Job(id); ok {
		writeJSON(w, http.StatusOK, job)
		return
	}
	if !forwarded(r) && n.relayFromPeers(w, r, n.hc, nil, isOK) {
		return
	}
	if data, ok := n.st.GetByID(id); ok && id != journalSnapshotID && looksLikeReport(data) {
		// The replica tier is the answer of last resort: every node that
		// knew the job's metadata is gone, so the recovery is worth a
		// flight-recorder entry.
		n.fr.Record(obs.FlightEvent{Kind: "repair", JobID: id,
			Msg: "result served from the replica tier (no node knows the job)"})
		writeJSON(w, http.StatusOK, service.Job{
			ID:     id,
			Status: service.StatusDone,
			Cached: true,
			Report: json.RawMessage(data),
		})
		return
	}
	writeErr(w, http.StatusNotFound, "unknown job %s", id)
}

// handleJobEvents serves a job's progress stream: locally when this node
// runs (or ran) the job, otherwise proxied live from the peer that does,
// flushing per chunk so NDJSON progress lines arrive as they are
// produced. The stream proxy uses an untimed client — a watch legally
// outlives the router's request timeout.
func (n *Node) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if _, ok := n.svc.Job(r.PathValue("id")); !ok && !forwarded(r) {
		streamClient := &http.Client{Transport: n.hc.Transport}
		if n.relayFromPeers(flushWriter{w}, r, streamClient, nil, isOK) {
			return
		}
	}
	// This node knows the job, or no peer does: the local service renders
	// the canonical answer (the stream, a store-backed status, or 404).
	n.local.ServeHTTP(w, r)
}

// isOK admits only a 200 answer from a peer.
func isOK(status int) bool { return status == http.StatusOK }

// handleMinimize routes a minimize request to the node that holds the
// job's input tuple: locally when this node knows the job, otherwise to
// the peer that does. Minimization needs the retained attachments and
// the archived dump, which only the node that ran (or cache-served) the
// analysis holds — the cluster routes by job, not by program, because
// the job ID alone identifies where that state lives.
func (n *Node) handleMinimize(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouteBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	// A peer's 404 means it does not know the job either; keep looking.
	knows := func(status int) bool { return status != http.StatusNotFound }
	if _, ok := n.svc.Job(r.PathValue("id")); !ok && !forwarded(r) && n.relayFromPeers(w, r, n.hc, body, knows) {
		return
	}
	// This node knows the job, or no node does: the local service answers
	// (the canonical 404 in the second case).
	n.serveLocal(w, r, bytes.NewReader(body), int64(len(body)))
}

// flushWriter flushes after every write, so relayed event lines reach
// the watcher as they are produced rather than when a buffer fills.
type flushWriter struct{ http.ResponseWriter }

func (fw flushWriter) Write(p []byte) (int, error) {
	nw, err := fw.ResponseWriter.Write(p)
	if f, ok := fw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	return nw, err
}

// localFragments gathers everything this node recorded for a job: the
// routing layer's fragments (proxy hops, read-through and repair pulls)
// plus the service's (the request fragment and the analysis span tree).
func (n *Node) localFragments(id string) []*obs.TraceData {
	return append(n.frags.Get(id), n.svc.TraceFragments(id)...)
}

// handleJobTrace is the cluster-wide trace stitcher: it gathers every
// node's span fragments for the job — this node's routing and service
// fragments plus each routable peer's via GET /internal/v1/trace/{id} —
// and serves them merged into one tree. Any node can answer for any
// job: the ingest edge holds the routing fragment, the analyzing node
// the request and analysis fragments, and repair or read-through pulls
// may have scattered more. Jobs with no fragments anywhere (cache hits,
// replayed records) fall through to the local service's canonical 404.
func (n *Node) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	frags := n.localFragments(id)
	if !forwarded(r) {
		for _, peer := range n.live(n.peers) {
			var peerFrags []*obs.TraceData
			if n.peerJSON(r.Context(), peer, "/internal/v1/trace/"+id, &peerFrags) == nil {
				frags = append(frags, peerFrags...)
			}
		}
	}
	tr := obs.Stitch(frags)
	if tr == nil {
		// The local service renders the canonical answer: a no-trace 404
		// for a job it knows (a cache hit), or unknown job.
		n.local.ServeHTTP(w, r)
		return
	}
	service.WriteTrace(w, r, tr)
}

// handleTraceFragments serves this node's fragments for a job — the
// routing layer's ring plus the service's — to a stitching peer. An
// empty list is a 200: "nothing recorded here" is an answer.
func (n *Node) handleTraceFragments(w http.ResponseWriter, r *http.Request) {
	frags := n.localFragments(r.PathValue("id"))
	if frags == nil {
		frags = []*obs.TraceData{}
	}
	writeJSON(w, http.StatusOK, frags)
}

// journalSnapshotID is the one store ID that must never leave the node:
// the journal snapshot mirror holds program sources and the full job
// history under a globally constant key, and it is neither a result nor
// a replicated artifact.
var journalSnapshotID = service.JournalSnapshotKey().ID()

// looksLikeReport guards the by-ID store path: only JSON objects (result
// reports) are served as results — a dump blob whose ID was guessed is
// not a job.
func looksLikeReport(data []byte) bool {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '{' && json.Valid(data)
}

// handleBuckets merges the whole cluster's crash-dedup view: the same
// root cause analyzed on two nodes is still one bucket.
func (n *Node) handleBuckets(w http.ResponseWriter, r *http.Request) {
	merged := make(map[string]map[string]bool)
	add := func(bs []service.Bucket) {
		for _, b := range bs {
			ids := merged[b.Key]
			if ids == nil {
				ids = make(map[string]bool)
				merged[b.Key] = ids
			}
			for _, id := range b.JobIDs {
				ids[id] = true
			}
		}
	}
	add(n.svc.Buckets())
	if !forwarded(r) {
		for _, peer := range n.live(n.peers) {
			var list bucketList
			if n.peerJSON(r.Context(), peer, "/v1/buckets", &list) == nil {
				add(list.Buckets)
			}
		}
	}
	out := make([]service.Bucket, 0, len(merged))
	for k, ids := range merged {
		b := service.Bucket{Key: k, Count: len(ids)}
		for id := range ids {
			b.JobIDs = append(b.JobIDs, id)
		}
		sort.Strings(b.JobIDs)
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	writeJSON(w, http.StatusOK, bucketList{Buckets: out})
}

// bucketList is the GET /v1/buckets body.
type bucketList struct {
	Buckets []service.Bucket `json:"buckets"`
}

// Status is the GET /v1/cluster body.
type Status struct {
	Self     string       `json:"self"`
	Peers    []string     `json:"peers"`
	Replicas int          `json:"replicas"`
	Health   []PeerStatus `json:"health"`
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	health := n.prober.snapshot()
	sort.Slice(health, func(i, j int) bool { return health[i].Peer < health[j].Peer })
	writeJSON(w, http.StatusOK, Status{
		Self:     n.self,
		Peers:    n.Peers(),
		Replicas: n.replicas,
		Health:   health,
	})
}

// RouteInfo is the GET /v1/cluster/route/{program} body: where a
// program's dumps go, in failover order. Scripts (and the CI smoke test)
// use it to find a program's owner without reimplementing the hash.
type RouteInfo struct {
	Program string   `json:"program"`
	Owner   string   `json:"owner"`
	Order   []string `json:"order"`
	Replica []string `json:"replicas"`
}

func (n *Node) handleRoute(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("program")
	order := rank(n.peers, fp)
	replicas := order
	if len(replicas) > n.replicas {
		replicas = replicas[:n.replicas]
	}
	writeJSON(w, http.StatusOK, RouteInfo{
		Program: fp,
		Owner:   order[0],
		Order:   order,
		Replica: replicas,
	})
}

// handleStoreGet serves one artifact to a pulling peer. Local tiers
// only: answering from our own fetch path would let two missing nodes
// ping-pong forever. The journal snapshot's constant ID is refused —
// it is node-local state, not a replicated artifact.
func (n *Node) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if r.PathValue("id") == journalSnapshotID {
		writeErr(w, http.StatusNotFound, "no artifact %s", r.PathValue("id"))
		return
	}
	data, ok := n.st.GetByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no artifact %s", r.PathValue("id"))
		return
	}
	if r.Method == http.MethodHead {
		// The repair sweep's existence probe: status only, and not
		// counted as a serve.
		w.WriteHeader(http.StatusOK)
		return
	}
	n.served.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// handleStoreIndex serves this node's replicable key inventory — what a
// sweeping peer unions into its repair work list. Keys only, never data;
// the journal space and other node-local keys are excluded.
func (n *Node) handleStoreIndex(w http.ResponseWriter, r *http.Request) {
	keys := []store.Key{}
	for _, k := range n.st.Keys() {
		if replicable(k) {
			keys = append(keys, k)
		}
	}
	writeJSON(w, http.StatusOK, keys)
}

// handleRepair runs one synchronous anti-entropy sweep and returns its
// stats — the deterministic trigger the chaos smoke test (and an
// operator mid-incident) uses instead of waiting out RepairInterval.
func (n *Node) handleRepair(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.RepairNow(r.Context()))
}

// handleStorePut accepts a peer's write-through. The artifact is
// verified against its content address before entering the local store,
// and stored with PutLocal so it does not echo back into the cluster.
func (n *Node) handleStorePut(w http.ResponseWriter, r *http.Request) {
	var env artifactEnvelope
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouteBody)).Decode(&env); err != nil {
		writeErr(w, http.StatusBadRequest, "bad envelope: %v", err)
		return
	}
	if env.Key.ID() != r.PathValue("id") {
		writeErr(w, http.StatusBadRequest, "key does not hash to %s", r.PathValue("id"))
		return
	}
	if err := verifyArtifact(env.Key, env.Data); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := n.st.PutLocal(env.Key, env.Data); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// clusterSnapshot renders the cluster layer's own series as an
// obs.Snapshot, appended after the service's in every exposition.
func (n *Node) clusterSnapshot() obs.Snapshot {
	snap := obs.Snapshot{
		obs.Gauge("resd_cluster_peers", "Cluster membership size (self included).", float64(len(n.peers))),
		obs.Counter("resd_cluster_proxied_total", "Requests proxied to their owning node.", float64(n.proxied.Load())),
		obs.Counter("resd_cluster_failovers_total", "Proxy attempts that failed over past an unhealthy owner.", float64(n.failovers.Load())),
		obs.Counter("resd_cluster_replica_puts_total", "Artifacts written through to peer replicas.", float64(n.replicaPuts.Load())),
		obs.Counter("resd_cluster_replica_put_errors_total", "Write-through attempts that failed.", float64(n.putErrors.Load())),
		obs.Counter("resd_cluster_replica_fetches_total", "Read-through pulls that recovered an artifact from a peer.", float64(n.fetches.Load())),
		obs.Counter("resd_cluster_replica_fetch_misses_total", "Read-through pulls no peer could answer.", float64(n.fetchMisses.Load())),
		obs.Counter("resd_cluster_replica_serves_total", "Artifacts served to pulling peers.", float64(n.served.Load())),
		obs.Counter("resd_cluster_spooled_bytes_total", "Request-body bytes spilled to the router's disk spool.", float64(n.spooledBytes.Load())),
		obs.Counter("resd_repair_sweeps_total", "Anti-entropy sweeps completed.", float64(n.repairSweeps.Load())),
		obs.Counter("resd_repair_total", "Artifacts recovered (pulled) by the anti-entropy sweep.", float64(n.repairPulled.Load())),
		obs.Counter("resd_repair_pushed_total", "Artifacts re-pushed to under-replicated peers by the sweep.", float64(n.repairPushed.Load())),
		obs.Counter("resd_repair_corrupt_total", "Local artifacts dropped by the sweep for failing content verification.", float64(n.repairCorrupt.Load())),
	}
	states := map[string]int{}
	for _, ps := range n.prober.snapshot() {
		states[ps.State]++
	}
	for _, st := range []string{"healthy", "suspect", "down", "recovering"} {
		snap = append(snap, obs.Gauge("resd_cluster_peer_state", "Peers per health state.",
			float64(states[st])).With("state", st))
	}
	snap = append(snap, obs.HistogramMetric("resd_cluster_proxy_seconds",
		"Intra-cluster proxy hop latency.", n.histProxy.Snapshot()))
	return snap
}

// nodeSnapshot is this node's full metric state — service plus cluster
// series — tagged with its identity: the unit of federation.
func (n *Node) nodeSnapshot() obs.NodeSnapshot {
	return obs.NodeSnapshot{
		Node:    n.self,
		Metrics: append(n.svc.MetricsSnapshot(), n.clusterSnapshot()...),
	}
}

// handleMetrics renders this node's service + cluster series as
// Prometheus text.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WriteProm(w, n.nodeSnapshot().Metrics)
}

// handleNodeMetrics serves the node's snapshot in its JSON wire form —
// what a federating peer merges.
func (n *Node) handleNodeMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.nodeSnapshot())
}

// handleClusterMetrics federates the whole cluster into one exposition:
// this node's snapshot plus every routable peer's, merged by obs.Merge —
// counters summed, histogram buckets merged, gauges tagged per node. A
// peer that cannot be reached is skipped (its absence shows in
// resd_cluster_peer_state), so one dead node never blanks the scrape.
func (n *Node) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	nodes := []obs.NodeSnapshot{n.nodeSnapshot()}
	for _, peer := range n.live(n.peers) {
		var ns obs.NodeSnapshot
		if n.peerJSON(r.Context(), peer, "/internal/v1/metrics", &ns) == nil {
			nodes = append(nodes, ns)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WriteProm(w, obs.Merge(nodes))
}
