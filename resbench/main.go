// Command resbench is the repository's benchmark: it runs one named
// workload from a seed, measures it for a fixed time, checks every
// answer, and prints its metrics by name with their units. The last line
// of its output is one JSON object:
//
//	{"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 a
// separate traced run attributes each operation's time to the modules it
// calls and prints the per-layer metrics. WORKLOADS.md describes the
// workloads and metrics.
//
// Usage (from the repository root):
//
//	bash resbench/run.sh --workload long-exec --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// env is a set-up workload, ready to be measured.
type env interface {
	run(ctx context.Context, dur time.Duration, traced bool) (*runResult, error)
	close()
}

// runResult is what one measured phase produced.
type runResult struct {
	t          tally
	ttrc       []float64 // ms, first-sight analyses
	submit     []float64 // ms, submissions
	late       []float64 // ms, open-loop generator lateness
	firstSight int
	elapsed    time.Duration
	layers     map[string]float64 // traced run only
	notes      []string
	byClass    map[string][]float64 // ms, time to root cause per input class
}

// classSample records one time-to-root-cause sample under its input class.
func (rr *runResult) classSample(class string, v float64) {
	if rr.byClass == nil {
		rr.byClass = map[string][]float64{}
	}
	rr.byClass[class] = append(rr.byClass[class], v)
}

// setupFunc generates a workload's inputs from the seed and brings up
// what it runs against (daemons keep their state under dir). It returns
// the inputs' hash.
type setupFunc func(ctx context.Context, seed int64, dur time.Duration, dir string) (env, string, error)

var workloads = map[string]setupFunc{
	"wide-search":  setupWide,
	"long-exec":    setupLong,
	"fleet-ingest": setupFleet,
}

// ungated names the workloads the benchmark runs but BENCHMARK.json
// leaves out, with the reason, which a run of one prints. WORKLOADS.md
// has the figures.
var ungated = map[string]string{
	"wide-search": "not in BENCHMARK.json: each of its four ten-run sets on a shared " +
		"2-vCPU host spread 0.21-0.31 of the median, near or past the largest bound",
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

func main() {
	// The daemons log every job at INFO, as resd does; the records are
	// formatted (that cost is the daemon's) but not kept.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("resbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: wide-search, long-exec or fleet-ingest")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for daemon stores and journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "resbench: need -workload (wide-search, long-exec, fleet-ingest), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	traced := *trace == 1
	dur := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "resbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// Set up several times and keep the last: setup_s is the median, and
	// every set-up must generate the same inputs.
	var (
		e      env
		hash   string
		setups []float64
	)
	for k := 0; k < setupRuns; k++ {
		runtime.GC()
		t0 := time.Now()
		en, h, err := setup(ctx, *seed, dur, filepath.Join(dir, strconv.Itoa(k)))
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintf(stderr, "resbench: %s set-up: %v\n", *name, err)
			if e != nil {
				e.close()
			}
			return 1
		}
		if k > 0 && h != hash {
			en.close()
			fmt.Fprintf(stderr, "resbench: %s set-up %d generated inputs %s, not %s\n", *name, k, h, hash)
			return 1
		}
		hash = h
		if k < setupRuns-1 {
			en.close()
		} else {
			e = en
		}
	}
	fmt.Fprintf(stdout, "resbench workload=%s seed=%d trace=%d input_hash=%s nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		*name, *seed, *trace, hash, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	// Hand the discarded set-ups' memory back to the kernel before the
	// peak count restarts, so the peaks' floor is what the measured phase
	// starts from; floor_mb on the samples line shows it.
	debug.FreeOSMemory()
	floor := statusMB("VmRSS")
	resetPeakRSS()
	stop := make(chan struct{})
	peaks := watchPeakRSS(stop)
	rt0 := readRuntime()
	rr, err := e.run(ctx, dur, traced)
	rt1 := readRuntime()
	close(stop)
	windows := <-peaks
	e.close()
	if err != nil {
		fmt.Fprintf(stderr, "resbench: %s: %v\n", *name, err)
		return 1
	}
	if rr.t.attempted == 0 {
		fmt.Fprintf(stderr, "resbench: %s attempted no operation\n", *name)
		return 1
	}
	if why, ok := ungated[*name]; ok {
		rr.notes = append(rr.notes, *name+" is "+why)
	}
	for _, n := range rr.notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}
	classes := make([]string, 0, len(rr.byClass))
	for c := range rr.byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(stdout, "class %-24s n=%4d ttrc_p50_ms=%10.3f\n", c, len(rr.byClass[c]), median(rr.byClass[c]))
	}
	n := len(rr.ttrc)
	if !tailOK(0.9, n) {
		fmt.Fprintf(stdout, "note: %d time-to-root-cause samples leave fewer than %d beyond p90 (highest valid: p%g)\n",
			n, tailBeyond, 100*tailQuantile(n))
	}
	if !tailOK(0.9, len(windows)) {
		fmt.Fprintf(stdout, "note: %d memory windows leave fewer than %d beyond p90\n", len(windows), tailBeyond)
	}
	e2e := map[string]float64{
		"setup_s":        median(setups),
		"ttrc_p50_ms":    percentile(rr.ttrc, 0.5),
		"ttrc_p90_ms":    percentile(rr.ttrc, 0.9),
		"analyses_per_s": ratio(float64(rr.firstSight), rr.elapsed.Seconds()),
		"submit_p50_ms":  percentile(rr.submit, 0.5),
		"submit_p90_ms":  percentile(rr.submit, 0.9),
		"peak_mem_mb":    percentile(windows, 0.9),
	}
	fmt.Fprintf(stdout, "samples ttrc=%d submit=%d elapsed_s=%.3f late_p90_ms=%.3f floor_mb=%.1f mem_windows=%d mem_max_mb=%.1f %s failed_ratio=%.6f\n",
		n, len(rr.submit), rr.elapsed.Seconds(), percentile(rr.late, 0.9), floor, len(windows), percentile(windows, 1),
		rr.t.String(), ratio(float64(rr.t.failed), float64(rr.t.attempted)))
	defs, values := endToEnd, e2e
	if traced {
		runtimeMetrics(rr.layers, rt0, rt1, rr.t.attempted)
		defs, values = perLayer, rr.layers
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "traced %-28s %14.4f %s\n", d.name, e2e[d.name], d.unit)
		}
	}
	out := map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(stdout, "metric %-32s %14.4f %s\n", d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rr.t.correct(),
		"attempted": rr.t.attempted,
		"failed":    rr.t.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "resbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memWindow is how long one peak-memory window lasts. peak_mem_mb is
// the 90th percentile of the windows' peaks, not the peak of the whole
// run: that is the largest of many heap excursions whose size the
// garbage collector's timing decides, and on wide-search it ranged from
// 31 to 43 MB over twenty runs, while the windows' percentile held.
const memWindow = 250 * time.Millisecond

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) at the
// current resident size. Where the kernel refuses, peaks run from the
// start of the process.
func resetPeakRSS() { os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// watchPeakRSS records the peak resident memory (MB) of each memWindow
// until stop is closed, restarting the count after each window, and
// then sends the peaks.
func watchPeakRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var peaks []float64
		tick := time.NewTicker(memWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peaks = append(peaks, statusMB("VmHWM"))
				resetPeakRSS()
			case <-stop:
				out <- append(peaks, statusMB("VmHWM"))
				return
			}
		}
	}()
	return out
}

// statusMB is a memory figure of /proc/self/status (VmRSS, the resident
// memory now, or VmHWM, its peak) in MB.
func statusMB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
