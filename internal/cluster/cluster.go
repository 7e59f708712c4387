package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"res"
	"res/internal/fault"
	"res/internal/obs"
	"res/internal/service"
	"res/internal/store"
)

// Config assembles one cluster node.
type Config struct {
	// Self is this node's advertised base URL — the identity rendezvous
	// hashing scores, so it must be spelled exactly as it appears in
	// Peers (it is added if absent).
	Self string
	// Peers is the full static membership: every node's base URL,
	// including (usually) Self. Order does not matter; all nodes must be
	// started with the same set.
	Peers []string
	// Replicas is R, the number of nodes (owner included) that hold each
	// completed result and dump blob. Clamped to [1, len(peers)];
	// 0 = DefaultReplicas.
	Replicas int
	// Service is the local analysis service this node fronts.
	Service *service.Service
	// ProbeInterval is the /healthz polling period; 0 = DefaultProbeInterval.
	ProbeInterval time.Duration
	// Client is the HTTP client for proxying, replication, and probes;
	// nil = a default with a sane timeout.
	Client *http.Client
	// RepairInterval is the anti-entropy sweep period. 0 disables the
	// background loop (RepairNow still works on demand).
	RepairInterval time.Duration
	// SpoolDir is where oversized request bodies spool to disk while
	// crossing the router; "" = the system temp directory.
	SpoolDir string
	// MaxRouteBody bounds request bodies crossing the router; <= 0 means
	// service.DefaultMaxRequestBody (mirroring the local service bound).
	MaxRouteBody int64
	// Faults, when set, injects transport faults (resets, black holes,
	// mid-body cuts) into every intra-cluster HTTP call. Chaos-testing
	// only; nil in production.
	Faults *fault.Injector
	// FlightRec, when set, receives the cluster layer's operational
	// events (peers marked down, repair actions, replication faults) —
	// normally the same recorder the local service writes to, so one
	// ring holds the node's whole story. Nil disables recording.
	FlightRec *obs.FlightRecorder
}

// DefaultReplicas keeps every artifact on two nodes: lose any one disk
// and the cluster still has the bytes.
const DefaultReplicas = 2

// DefaultProbeInterval is the /healthz polling period when unset.
const DefaultProbeInterval = 2 * time.Second

// replicationTimeout bounds one replication round trip: a write-through
// push, a read-through pull, and the repair sweep's index fetch and
// existence probe. Replication traffic shares the submission path — a
// write-through runs on the worker that produced the result, a
// read-through inside the submit-time cache probe — so a slow or
// half-dead peer must cost a bounded wait, not the client's full proxy
// timeout.
const replicationTimeout = 5 * time.Second

// forwardedHeader marks intra-cluster requests. A request carrying it is
// served locally no matter what the ring says — the hop that set it
// already did the routing — so a proxy can never loop.
const forwardedHeader = "X-Rescluster-Forwarded"

// Node is one member of the cluster: the local service plus the
// embedded router, health prober, and replication tier.
type Node struct {
	self     string
	peers    []string // full membership, sorted, self included
	replicas int
	svc      *service.Service
	local    http.Handler // the service's own API, built once
	st       *store.Store
	prober   *prober
	hc       *http.Client
	spoolDir string
	maxBody  int64
	fr       *obs.FlightRecorder
	// frags holds the routing layer's trace fragments (proxy hops,
	// read-through pulls, repair pulls) keyed by job ID, served to the
	// cluster-wide trace stitcher alongside the service's own fragments.
	frags *obs.FragRing

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu sync.Mutex
	// fpCache memoizes program_source → program fingerprint hex so the
	// router prices routing at one map hit per submission, not one
	// assembly. Guarded by mu.
	fpCache map[[sha256.Size]byte]string

	// Counters. clusterSnapshot names each one and gives it its help text.
	proxied, failovers                        atomic.Uint64
	replicaPuts, putErrors                    atomic.Uint64
	fetches, fetchMisses                      atomic.Uint64
	served                                    atomic.Uint64 // internal store gets answered for peers
	spooledBytes                              atomic.Uint64 // bodies spilled to disk while routing
	repairSweeps                              atomic.Uint64
	repairPulled, repairPushed, repairCorrupt atomic.Uint64

	// histProxy times each intra-cluster proxy hop (request relay plus
	// the owning node's handling), the resd_cluster_proxy_seconds series.
	histProxy *obs.Histogram
}

// New assembles a node and starts its health probing. The service's
// store gains the replication tier as a side effect (write-through on
// Put, read-through pull on miss); call Close to stop probing and
// detach.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: Service is required")
	}
	members := map[string]bool{normalizeURL(cfg.Self): true}
	for _, p := range cfg.Peers {
		if u := normalizeURL(p); u != "" {
			members[u] = true
		}
	}
	peers := make([]string, 0, len(members))
	for u := range members {
		peers = append(peers, u)
	}
	sort.Strings(peers)
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = DefaultReplicas
	}
	if replicas > len(peers) {
		replicas = len(peers)
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Faults.Enabled(fault.SeamTransport) {
		// Clone: the caller's client must not inherit the fault layer.
		faulty := *hc
		faulty.Transport = fault.Transport(hc.Transport, cfg.Faults)
		hc = &faulty
	}
	maxBody := cfg.MaxRouteBody
	if maxBody <= 0 {
		maxBody = service.DefaultMaxRequestBody
	}
	n := &Node{
		self:      normalizeURL(cfg.Self),
		peers:     peers,
		replicas:  replicas,
		svc:       cfg.Service,
		local:     cfg.Service.Handler(),
		st:        cfg.Service.Store(),
		prober:    newProber(normalizeURL(cfg.Self), peers),
		hc:        hc,
		spoolDir:  cfg.SpoolDir,
		maxBody:   maxBody,
		fpCache:   make(map[[sha256.Size]byte]string),
		histProxy: obs.NewHistogram(obs.MicroBuckets),
		fr:        cfg.FlightRec,
		frags:     obs.NewFragRing(obs.DefaultFragJobs),
	}
	n.prober.fr = cfg.FlightRec
	n.st.SetReplication(n.writeThrough, n.fetchFromPeers)
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	interval := cfg.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.prober.probeLoop(ctx, interval, hc)
	}()
	if cfg.RepairInterval > 0 {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.repairLoop(ctx, cfg.RepairInterval)
		}()
	}
	return n, nil
}

// Close stops the health prober and detaches the replication tier (the
// store keeps working locally).
func (n *Node) Close() {
	n.cancel()
	n.wg.Wait()
	n.st.SetReplication(nil, nil)
}

// Self returns this node's advertised URL.
func (n *Node) Self() string { return n.self }

// Peers returns the full membership (sorted, self included).
func (n *Node) Peers() []string { return append([]string(nil), n.peers...) }

// normalizeURL gives peer addresses a canonical spelling so "host:port"
// and "http://host:port/" rendezvous-hash identically.
func normalizeURL(u string) string {
	u = strings.TrimSpace(u)
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/")
}

// peerCall is the one way a node reaches a peer: it sends method and
// path to peer with the caller's context and the loop-guard header, and
// reports a transport failure to the prober before returning it, so
// every intra-cluster request feeds the health state machine. A caller
// that gave up (its context canceled) says nothing about the peer and
// is not reported; a timeout is. body, when non-nil, is JSON;
// traceparent, when non-empty, carries the caller's span to the peer. hc
// is n.hc except for the event stream, whose watch legally outlives the
// client's timeout. The caller closes the response body.
func (n *Node) peerCall(ctx context.Context, hc *http.Client, method, peer, path string, body io.Reader, traceparent string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, peer+path, body)
	if err != nil {
		return nil, err
	}
	if sr, ok := body.(*io.SectionReader); ok {
		// A disk-spooled body gets the length and rewind NewRequest gives
		// an in-memory one, so the transport can resend it whole.
		req.ContentLength = sr.Size()
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(io.NewSectionReader(sr, 0, sr.Size())), nil
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	req.Header.Set(forwardedHeader, n.self)
	resp, err := hc.Do(req)
	if err != nil && !errors.Is(ctx.Err(), context.Canceled) {
		n.prober.observe(peer, false, err.Error())
	}
	return resp, err
}

// live filters members down to the peers a request may be offered to
// now: the routable ones other than self.
func (n *Node) live(members []string) []string {
	var out []string
	for _, peer := range members {
		if peer != n.self && n.prober.routable(peer) {
			out = append(out, peer)
		}
	}
	return out
}

// maxPeerJSON bounds a JSON body read from a peer (a trace, a bucket
// list, a metrics snapshot, a store index).
const maxPeerJSON = 16 << 20

// peerJSON GETs path from peer and decodes the JSON answer into v. A
// status other than 200 is an error.
func (n *Node) peerJSON(ctx context.Context, peer, path string, v any) error {
	resp, err := n.peerCall(ctx, n.hc, http.MethodGet, peer, path, nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body := io.LimitReader(resp.Body, maxPeerJSON)
	defer io.Copy(io.Discard, body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s%s: %s", peer, path, resp.Status)
	}
	return json.NewDecoder(body).Decode(v)
}

// replicaSet returns the top-R nodes for a store key. Results and dump
// blobs hash by their dominant fingerprint component so a program's
// results live where its dumps are routed.
func (n *Node) replicaSet(k store.Key) []string {
	key := k.Program.String()
	if k.Program.IsZero() {
		key = k.Dump.String()
	}
	r := rank(n.peers, key)
	if len(r) > n.replicas {
		r = r[:n.replicas]
	}
	return r
}

// replicable reports whether a key participates in replication. The
// journal space is node-local state: replicating it would have peers
// overwrite each other's snapshots.
func replicable(k store.Key) bool {
	return k.Space == "result" || k.Space == "dump"
}

// writeThrough pushes one completed artifact to the key's other
// replicas. Synchronous (it runs on the analysis worker that produced
// the artifact) and best-effort: an unreachable replica heals later via
// the read-through pull.
func (n *Node) writeThrough(k store.Key, data []byte) {
	if !replicable(k) {
		return
	}
	// A down replica is skipped: it pulls what it missed when it recovers.
	for _, peer := range n.live(n.replicaSet(k)) {
		if err := n.pushArtifact(context.Background(), peer, k, data); err != nil {
			n.fr.Eventf("fault", "write-through of %s to %s failed: %v", k.ID(), peer, err)
			n.putErrors.Add(1)
			continue
		}
		n.replicaPuts.Add(1)
	}
}

// artifactEnvelope is the intra-cluster replication wire form: the full
// key (the receiver stores by key, not by opaque ID) plus the bytes.
type artifactEnvelope struct {
	store.Key
	Data []byte `json:"data"`
}

// verifyArtifact checks replicated bytes against their content address
// before they enter the local store: a dump blob must re-hash to the
// key's dump fingerprint (the key IS the content hash), and a result
// must at least parse as a report object — a corrupted or malicious
// replica cannot poison the cache with bytes that don't match their
// name.
func verifyArtifact(k store.Key, data []byte) error {
	switch k.Space {
	case "dump":
		if store.BytesFingerprint(data) != k.Dump {
			return fmt.Errorf("cluster: dump blob does not re-hash to its key")
		}
	case "result":
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(data, &probe); err != nil {
			return fmt.Errorf("cluster: result blob is not a report: %w", err)
		}
	default:
		return fmt.Errorf("cluster: space %q is not replicated", k.Space)
	}
	return nil
}

// pushArtifact PUTs one artifact to a peer's internal store endpoint.
func (n *Node) pushArtifact(ctx context.Context, peer string, k store.Key, data []byte) error {
	body, err := json.Marshal(artifactEnvelope{k, data})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, replicationTimeout)
	defer cancel()
	resp, err := n.peerCall(ctx, n.hc, http.MethodPut, peer, "/internal/v1/store/"+k.ID(), bytes.NewReader(body), "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: replica put: %s", resp.Status)
	}
	return nil
}

// fetchFromPeers is the read-through pull: both local tiers missed, so
// ask the key's replicas (then any remaining peer, covering placement
// drift) for the bytes. Verified against the content address before the
// store caches them. A successful recovery leaves a trace fragment in
// the router's ring — a result key's ID is its job ID, so the pull
// shows up in that job's stitched trace — plus a flight-recorder event.
// Misses stay silent beyond the counter: every fresh submission's cache
// probe legitimately misses here.
func (n *Node) fetchFromPeers(k store.Key) ([]byte, bool) {
	if !replicable(k) {
		return nil, false
	}
	id := k.ID()
	tried := make(map[string]bool, len(n.peers))
	for _, peer := range n.live(append(n.replicaSet(k), rank(n.peers, k.Program.String())...)) {
		if tried[peer] {
			continue
		}
		tried[peer] = true
		tr := obs.NewTraceCtx("read-through", obs.TraceContext{}, n.self)
		tr.Root().SetStr("peer", peer)
		tr.Root().SetStr("space", k.Space)
		data, ok := n.pullArtifact(peer, id)
		if !ok {
			continue
		}
		if verifyArtifact(k, data) != nil {
			continue
		}
		n.frags.Add(id, tr.Finish())
		n.fr.Eventf("repair", "read-through pulled %s %s from %s", k.Space, id, peer)
		n.fetches.Add(1)
		return data, true
	}
	n.fetchMisses.Add(1)
	return nil, false
}

// pullArtifact GETs one artifact from a peer's internal store endpoint.
func (n *Node) pullArtifact(peer, id string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), replicationTimeout)
	defer cancel()
	resp, err := n.peerCall(ctx, n.hc, http.MethodGet, peer, "/internal/v1/store/"+id, nil, "")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, false
	}
	return data, true
}

// programFingerprint resolves a submission's routing key: the program_id
// when present, else the fingerprint of the assembled source (memoized
// by source hash — a fleet resubmitting one binary's dumps assembles it
// here once).
func (n *Node) programFingerprint(programID, source string) (string, error) {
	if programID != "" {
		if _, err := store.ParseFingerprint(programID); err != nil {
			return "", err
		}
		return programID, nil
	}
	if source == "" {
		return "", fmt.Errorf("cluster: program_id or program_source required")
	}
	h := sha256.Sum256([]byte(source))
	n.mu.Lock()
	fp, ok := n.fpCache[h]
	n.mu.Unlock()
	if ok {
		return fp, nil
	}
	p, err := res.Assemble(source)
	if err != nil {
		return "", err
	}
	pfp, err := store.ProgramFingerprint(p)
	if err != nil {
		return "", err
	}
	fp = pfp.String()
	n.mu.Lock()
	if len(n.fpCache) > 4096 { // bound a hostile stream of unique sources
		n.fpCache = make(map[[sha256.Size]byte]string)
	}
	n.fpCache[h] = fp
	n.mu.Unlock()
	return fp, nil
}
