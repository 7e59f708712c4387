package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"res/internal/cluster"
	"res/internal/service"
	"res/internal/store"
)

// node is one in-process resd: the service, its disk store and journal,
// the cluster layer when it has peers, and a real HTTP server on a
// loopback port — the same pieces cmd/resd wires together.
type node struct {
	url     string
	svc     *service.Service
	journal *service.Journal
	cl      *cluster.Node
	srv     *http.Server
	served  chan error
}

// daemonConfig is the deployment the daemon workloads run: resd's
// defaults except for the settings each workload names.
type daemonConfig struct {
	cacheEntries int // store memory tier (resd -cache-entries); 0 = default
	replicas     int // cluster replication factor (resd -replicas)
}

// startNodes starts n nodes under dir; with n > 1 they form one cluster.
func startNodes(dir string, n int, dc daemonConfig) ([]*node, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	var nodes []*node
	for i := range lns {
		nd, err := startNode(dir, i, lns[i], urls, dc)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			stopNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func startNode(dir string, i int, ln net.Listener, urls []string, dc daemonConfig) (*node, error) {
	st, err := store.NewDisk(dc.cacheEntries, filepath.Join(dir, fmt.Sprintf("store-%d", i)))
	if err != nil {
		return nil, err
	}
	j, err := service.OpenJournal(filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", i)))
	if err != nil {
		return nil, err
	}
	nd := &node{url: urls[i], journal: j, served: make(chan error, 1)}
	nd.svc = service.New(service.Config{
		Analysis:     service.AnalysisConfig{MaxDepth: 24},
		ShardWorkers: 2,
		JobTimeout:   time.Minute,
		MaxRetries:   2,
		Store:        st,
		Journal:      j,
		Node:         urls[i],
	})
	handler := nd.svc.Handler()
	if len(urls) > 1 {
		nd.cl, err = cluster.New(cluster.Config{
			Self:     urls[i],
			Peers:    urls,
			Replicas: dc.replicas,
			Service:  nd.svc,
			SpoolDir: filepath.Join(dir, fmt.Sprintf("spool-%d", i)),
		})
		if err != nil {
			nd.svc.Shutdown(context.Background())
			j.Close()
			return nil, err
		}
		handler = nd.cl.Handler()
	}
	nd.srv = &http.Server{Handler: handler}
	go func() { nd.served <- nd.srv.Serve(ln) }()
	return nd, nil
}

// stopNodes drains every node and waits for its server to exit.
func stopNodes(nodes []*node) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range nodes {
		nd.svc.Shutdown(ctx)
	}
	for _, nd := range nodes {
		if nd.cl != nil {
			nd.cl.Close()
		}
		nd.srv.Shutdown(ctx)
		if err := <-nd.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "resbench: server:", err)
		}
		nd.journal.Close()
	}
}

// scrapeNodes reads every node's /metrics.
func scrapeNodes(ctx context.Context, hc *http.Client, nodes []*node) (scrape, error) {
	out := make(scrape, len(nodes))
	for i, nd := range nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s/metrics: %s", nd.url, resp.Status)
		}
		if out[i], err = parseProm(bytes.NewReader(body)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
