package cluster

import (
	"context"
	"io"
	"net/http"
	"slices"
	"sort"
	"time"

	"res/internal/store"
)

// The anti-entropy sweep is the cluster's repair loop: replication on the
// write path is best-effort (a down replica, an injected disk error, a
// partial write all leave artifacts under-replicated or corrupt), and the
// read-through pull only heals keys somebody asks for. The sweep walks
// the full inventory — the local store's key index plus every routable
// peer's — and restores the replication invariant without waiting for a
// client read: corrupt local copies are dropped and re-pulled, missing
// owned artifacts are fetched, and replicas that lack an artifact we hold
// get it pushed.

// RepairStats is one sweep's outcome.
type RepairStats struct {
	// Scanned is the number of distinct replicable keys considered.
	Scanned int `json:"scanned"`
	// Pulled counts artifacts this node was missing (or holding corrupt)
	// and recovered from a replica.
	Pulled int `json:"pulled"`
	// Pushed counts artifacts re-pushed to replicas that lacked them.
	Pushed int `json:"pushed"`
	// Corrupt counts local copies whose bytes no longer matched their
	// content address; each was dropped (and re-pulled when possible).
	Corrupt int `json:"corrupt"`
	// Failed counts keys this node owns but could not recover this sweep
	// (no replica had intact bytes). They stay in the inventory and are
	// retried next sweep.
	Failed int `json:"failed"`
}

// RepairNow runs one synchronous anti-entropy sweep.
func (n *Node) RepairNow(ctx context.Context) RepairStats {
	var st RepairStats

	// Inventory: union of the local key index and every routable peer's.
	// The peer half is what makes a wiped disk recoverable — a node with
	// an empty store has an empty index, and only its peers remember what
	// it should hold.
	inventory := make(map[store.Key]bool)
	for _, k := range n.st.Keys() {
		if replicable(k) {
			inventory[k] = true
		}
	}
	for _, peer := range n.live(n.peers) {
		for _, k := range n.peerIndex(ctx, peer) {
			if replicable(k) {
				inventory[k] = true
			}
		}
	}
	keys := make([]store.Key, 0, len(inventory))
	for k := range inventory {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].ID() < keys[j].ID() })

	for _, k := range keys {
		if ctx.Err() != nil {
			break
		}
		st.Scanned++
		replicas := n.replicaSet(k)
		want := slices.Contains(replicas, n.self)
		data, have := n.st.PeekLocal(k)
		if have && verifyArtifact(k, data) != nil {
			// The bytes rotted under their content address: a partial
			// write, a flipped bit, torn disk. Drop the poison; the
			// re-pull below restores an intact copy.
			n.st.Drop(k)
			have = false
			st.Corrupt++
			n.fr.Eventf("fault", "sweep dropped corrupt %s %s", k.Space, k.ID())
		}
		if !have && want {
			if fetched, ok := n.fetchFromPeers(k); ok {
				if n.st.PutLocal(k, fetched) == nil {
					have = true
					st.Pulled++
				}
			}
			if !have {
				st.Failed++
				continue
			}
			data, _ = n.st.PeekLocal(k)
		}
		if have && len(data) > 0 {
			// Re-push to any replica that lacks the artifact (cheap HEAD
			// probe first — the common case is everyone has it).
			for _, peer := range n.live(replicas) {
				if !n.peerHasArtifact(ctx, peer, k.ID()) && n.pushArtifact(ctx, peer, k, data) == nil {
					st.Pushed++
				}
			}
		}
	}

	n.repairSweeps.Add(1)
	n.repairPulled.Add(uint64(st.Pulled))
	n.repairPushed.Add(uint64(st.Pushed))
	n.repairCorrupt.Add(uint64(st.Corrupt))
	if st.Pulled > 0 || st.Pushed > 0 || st.Corrupt > 0 || st.Failed > 0 {
		// Quiet sweeps (the steady state) stay out of the ring; a sweep
		// that actually repaired something is part of the node's story.
		n.fr.Eventf("repair", "sweep: scanned=%d pulled=%d pushed=%d corrupt=%d failed=%d",
			st.Scanned, st.Pulled, st.Pushed, st.Corrupt, st.Failed)
	}
	return st
}

// repairLoop runs RepairNow on the interval until ctx ends.
func (n *Node) repairLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.RepairNow(ctx)
		}
	}
}

// peerIndex fetches one peer's key inventory. An index that does not
// decode whole is dropped whole.
func (n *Node) peerIndex(ctx context.Context, peer string) []store.Key {
	ctx, cancel := context.WithTimeout(ctx, replicationTimeout)
	defer cancel()
	var keys []store.Key
	if n.peerJSON(ctx, peer, "/internal/v1/store-index", &keys) != nil {
		return nil
	}
	return keys
}

// peerHasArtifact HEAD-probes a peer's store for one artifact ID.
func (n *Node) peerHasArtifact(ctx context.Context, peer, id string) bool {
	ctx, cancel := context.WithTimeout(ctx, replicationTimeout)
	defer cancel()
	resp, err := n.peerCall(ctx, n.hc, http.MethodHead, peer, "/internal/v1/store/"+id, nil, "")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
