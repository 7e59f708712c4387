package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"res/internal/obs"
)

// PeerState is one peer's position in the health state machine:
//
//	healthy ──fail──▶ suspect ──fail──▶ down ──ok──▶ recovering ──ok──▶ healthy
//	   ▲                 │ok                              │fail
//	   └─────────────────┘◀───────────────────────────────┘
//
// healthy and suspect peers are routed to (one failed probe is grounds
// for suspicion, not exclusion — the next request's transport error will
// skip it anyway); down peers are not; recovering peers are routed to
// again but must string together recoverThreshold successful probes
// before they count as healthy — a flapping node that fails mid-recovery
// drops straight back to down.
type PeerState int

// failThreshold is how many consecutive failed observations take a peer
// from healthy to down (via suspect); recoverThreshold is how many
// consecutive successes take a down peer back to healthy (via
// recovering).
const (
	failThreshold    = 2
	recoverThreshold = 2
)

const (
	StateHealthy PeerState = iota
	StateSuspect
	StateDown
	StateRecovering
)

func (s PeerState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateRecovering:
		return "recovering"
	}
	return "unknown"
}

// Routable reports whether the router should offer requests to a peer in
// this state.
func (s PeerState) Routable() bool { return s != StateDown }

// peerHealth is one peer's tracked state.
type peerHealth struct {
	state PeerState
	fails int // consecutive failures while healthy/suspect
	oks   int // consecutive successes while recovering
	err   string
	since time.Time
}

// prober runs the health state machine over the peer set: it is the one
// judge of whether a peer is offered requests. Observations come from two
// sources: periodic GET /healthz probes, and passive reports from every
// peer call (a request that could not reach its peer is as good as a
// failed probe and arrives earlier), so a flapping peer is excluded after
// failThreshold consecutive failures whichever way they were seen.
type prober struct {
	self string
	// fr, when set, records each transition into down: the moment a
	// post-mortem needs to see when a peer went dark.
	fr *obs.FlightRecorder

	mu    sync.Mutex
	peers map[string]*peerHealth
}

func newProber(self string, peers []string) *prober {
	p := &prober{
		self:  self,
		peers: make(map[string]*peerHealth),
	}
	now := time.Now()
	for _, n := range peers {
		if n != self {
			p.peers[n] = &peerHealth{state: StateHealthy, since: now}
		}
	}
	return p
}

// observe feeds one observation (probe result or passive report) into
// the state machine.
func (p *prober) observe(peer string, ok bool, errMsg string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ph, known := p.peers[peer]
	if !known {
		return
	}
	prev := ph.state
	if ok {
		ph.err = ""
		switch ph.state {
		case StateHealthy, StateSuspect:
			ph.state = StateHealthy
			ph.fails = 0
		case StateDown:
			ph.state = StateRecovering
			ph.oks = 1
		case StateRecovering:
			ph.oks++
			if ph.oks >= recoverThreshold {
				ph.state = StateHealthy
				ph.fails, ph.oks = 0, 0
			}
		}
	} else {
		ph.err = errMsg
		switch ph.state {
		case StateHealthy, StateSuspect:
			ph.state = StateSuspect
			ph.fails++
			if ph.fails >= failThreshold {
				ph.state = StateDown
			}
		case StateRecovering:
			// Flapped mid-recovery: straight back down.
			ph.state = StateDown
			ph.oks = 0
		case StateDown:
		}
	}
	if ph.state != prev {
		ph.since = time.Now()
		if ph.state == StateDown {
			p.fr.Eventf("health", "peer %s marked down: %s", peer, errMsg)
		}
	}
}

// state returns a peer's current state (self is always healthy).
func (p *prober) state(peer string) PeerState {
	if peer == p.self {
		return StateHealthy
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ph, ok := p.peers[peer]; ok {
		return ph.state
	}
	return StateDown
}

// routable reports whether requests should be offered to peer.
func (p *prober) routable(peer string) bool {
	return peer == p.self || p.state(peer).Routable()
}

// PeerStatus is one peer's health as surfaced by GET /v1/cluster.
type PeerStatus struct {
	Peer  string    `json:"peer"`
	State string    `json:"state"`
	Since time.Time `json:"since"`
	Error string    `json:"error,omitempty"`
}

func (p *prober) snapshot() []PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerStatus, 0, len(p.peers))
	for n, ph := range p.peers {
		out = append(out, PeerStatus{Peer: n, State: ph.state.String(), Since: ph.since, Error: ph.err})
	}
	return out
}

// probeLoop polls every peer's /healthz on the interval until ctx ends.
func (p *prober) probeLoop(ctx context.Context, interval time.Duration, hc *http.Client) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		p.mu.Lock()
		targets := make([]string, 0, len(p.peers))
		for n := range p.peers {
			targets = append(targets, n)
		}
		p.mu.Unlock()
		for _, peer := range targets {
			p.probeOne(ctx, peer, hc)
		}
	}
}

// probeOne performs one /healthz round trip. A 503 (draining node) is a
// failure for routing purposes: the peer would reject proxied work.
func (p *prober) probeOne(ctx context.Context, peer string, hc *http.Client) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		p.observe(peer, false, err.Error())
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		p.observe(peer, false, err.Error())
		return
	}
	resp.Body.Close()
	p.observe(peer, resp.StatusCode == http.StatusOK, resp.Status)
}
