package main

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"res/internal/obs"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50 (nearest rank)", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	for _, c := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.9, 100, true}, // rank 90, 10 beyond
		{0.9, 99, false}, // rank 90, 9 beyond
		{0.5, 20, true},  // rank 10, 10 beyond
		{0.99, 999, false},
		{0.99, 1000, true},
		{0.9, 0, false},
	} {
		if got := tailOK(c.q, c.n); got != c.want {
			t.Errorf("tailOK(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestOpenLoopLatency drives the generator with a request that holds its
// only slot for longer than the arrival interval: the generator falls
// behind, and every request's latency must count the time it waited for
// a slot, measured from when it was due.
func TestOpenLoopLatency(t *testing.T) {
	const (
		n        = 12
		interval = 2 * time.Millisecond
		hold     = 10 * time.Millisecond
	)
	var mu sync.Mutex
	done := make([]time.Time, n)
	start := time.Now().Add(5 * time.Millisecond)
	sched, sent := openLoop(start, n, interval, 1, func(i int, release func()) {
		time.Sleep(hold)
		mu.Lock()
		done[i] = time.Now()
		mu.Unlock()
		release()
	})
	for i := 0; i < n; i++ {
		if want := start.Add(time.Duration(i) * interval); !sched[i].Equal(want) {
			t.Fatalf("request %d due at %v, want %v", i, sched[i], want)
		}
		lat := openLoopLatency(sched[i], done[i])
		if lat < done[i].Sub(sent[i]) {
			t.Errorf("request %d: latency %v is less than its service time %v", i, lat, done[i].Sub(sent[i]))
		}
		// With one slot, request i cannot finish before i+1 holds have
		// passed since the first was due.
		if min := time.Duration(i+1) * hold; done[i].Sub(start) < min {
			t.Errorf("request %d done %v after start, want at least %v", i, done[i].Sub(start), min)
		}
		if i > 0 && lateness(sched[i], sent[i]) < time.Duration(i)*(hold-interval)-hold {
			t.Errorf("request %d lateness %v does not grow with the backlog", i, lateness(sched[i], sent[i]))
		}
	}
	if lateness(sched[0], sched[0].Add(-time.Second)) != 0 {
		t.Error("a request sent early is not late")
	}
}

func TestParseProm(t *testing.T) {
	h := obs.NewHistogram([]float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)
	snap := obs.Snapshot{
		obs.Counter("resd_submitted_total", "Dumps accepted.", 7),
		obs.Gauge("resd_cache_hit_rate", "rate", 0.25),
		obs.HistogramMetric("resd_store_op_seconds", "store", h.Snapshot()).With("op", "get"),
		obs.Counter("resd_evidence_sources_total", "kinds", 3).With("kind", `odd "kind"\`),
	}
	var buf bytes.Buffer
	obs.WriteProm(&buf, snap)
	samples, err := parseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		kv   []string
		want float64
	}{
		{"resd_submitted_total", nil, 7},
		{"resd_cache_hit_rate", nil, 0.25},
		{"resd_store_op_seconds_count", []string{"op", "get"}, 3},
		{"resd_store_op_seconds_sum", []string{"op", "get"}, 0.5055},
		{"resd_store_op_seconds_bucket", []string{"op", "get", "le", "0.001"}, 1},
		{"resd_store_op_seconds_bucket", []string{"op", "get", "le", "+Inf"}, 3},
		{"resd_store_op_seconds_count", []string{"op", "put"}, 0},
		{"resd_evidence_sources_total", []string{"kind", `odd "kind"\`}, 3},
	} {
		if got := promSum(samples, c.name, c.kv...); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s%v = %v, want %v", c.name, c.kv, got, c.want)
		}
	}

	h.Observe(0.0015)
	var buf2 bytes.Buffer
	obs.WriteProm(&buf2, obs.Snapshot{obs.HistogramMetric("resd_store_op_seconds", "store", h.Snapshot()).With("op", "get")})
	later, err := parseProm(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	before, after := scrape{samples}, scrape{later}
	if got := histMean(before, after, "resd_store_op_seconds", "op", "get"); math.Abs(got-0.0015) > 1e-9 {
		t.Errorf("mean of the new observations = %v, want 0.0015", got)
	}
	if got := delta(before, after, "resd_store_op_seconds_count"); got != 1 {
		t.Errorf("count delta = %v, want 1", got)
	}

	for _, bad := range []string{"resd_x{op=\"get} 1\n", "resd_x{op=get} 1\n", "resd_x\n", "resd_x nope\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Layer: "op", Parent: -1, Start: at(0), End: at(100)},
		{Layer: "a", Parent: 0, Start: at(10), End: at(40)},
		{Layer: "b", Parent: 0, Start: at(30), End: at(60)}, // overlaps a: parallel work
		{Layer: "a.child", Parent: 1, Start: at(15), End: at(20)},
		{Layer: "c", Parent: 0, Start: at(90), End: at(120)}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{40, 25, 30, 5, 30}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].Layer, got[i], want[i]*time.Millisecond)
		}
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("union of nothing = %v", got)
	}
}

func TestSmoothOrder(t *testing.T) {
	order := smoothOrder([]int{2, 3})
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
	// Every prefix holds each class within one of its share.
	seen := [2]int{}
	for i, c := range order {
		seen[c]++
		for k, share := range []float64{0.4, 0.6} {
			if math.Abs(float64(seen[k])-share*float64(i+1)) > 1 {
				t.Errorf("prefix %d: class %d seen %d times, share %v", i+1, k, seen[k], share)
			}
		}
	}
}

// TestPeakWindows: the watcher reports a peak per window, the last one
// when stopped, and a window in which memory grew shows the growth over
// the window before it.
func TestPeakWindows(t *testing.T) {
	if statusMB("VmRSS") == 0 {
		t.Skip("no /proc/self/status")
	}
	stop := make(chan struct{})
	peaks := watchPeakRSS(stop)
	time.Sleep(memWindow + memWindow/2)
	burst := make([]byte, 64<<20)
	for i := 0; i < len(burst); i += 4096 {
		burst[i] = 1
	}
	time.Sleep(memWindow)
	close(stop)
	got := <-peaks
	if len(got) < 2 {
		t.Fatalf("%d windows over 2.5 window lengths", len(got))
	}
	if got[0] <= 0 || got[len(got)-1]-got[0] < 48 {
		t.Errorf("window peaks %v: want the 64 MB burst above the first window", got)
	}
	runtime.KeepAlive(burst)
}
