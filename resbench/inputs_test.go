package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"res/internal/rootcause"
	"res/internal/workload"
)

// TestInputHash: the same seed generates the same inputs, another seed
// different ones, for every workload.
func TestInputHash(t *testing.T) {
	gens := map[string]func(seed int64) string{
		"wide-search": func(seed int64) string {
			_, h, err := wideInputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
		"long-exec": func(seed int64) string {
			_, _, h, err := longExecInputs(seed, 6)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
		"fleet-ingest": func(seed int64) string {
			_, _, _, h, err := fleetInputs(seed, 12, 12)
			if err != nil {
				t.Fatal(err)
			}
			return h
		},
	}
	for name, gen := range gens {
		a, b, c := gen(1), gen(1), gen(2)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %s then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both hashed to %s", name, a)
		}
	}
}

// TestFleetTuplesDistinct: every working-set and first-sight tuple is a
// distinct submission, so a first sight is never a cache hit.
func TestFleetTuplesDistinct(t *testing.T) {
	_, ws, pool, _, err := fleetInputs(3, 40, 60)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tu := range append(ws, pool...) {
		key := string(tu.dump)
		if tu.opts != nil {
			key += string(rune(tu.opts.MaxDepth)) + string(rune(tu.opts.BeamWidth))
		}
		if seen[key] {
			t.Fatalf("%s: tuple repeats", tu.class)
		}
		seen[key] = true
	}
}

// TestFleetHalves: the traced fleet run's instrumented and reference
// requests carry the same kinds and the same proxied share, so their
// latencies differ by the tracing cost and not by the mix.
func TestFleetHalves(t *testing.T) {
	e := &fleetEnv{owner: []int{0, 1}, pool: []tuple{{prog: 0}, {prog: 1}}}
	for i := 0; i < 8; i++ {
		e.ws = append(e.ws, tuple{prog: i % 2})
	}
	var kinds [2][3]int
	var proxied [2]int
	for i, q := range e.plan(5, 40*len(fleetMix)) {
		h := 0
		if instrumented(i) {
			h = 1
		}
		kinds[h][q.kind]++
		if q.node != e.owner[q.prog] {
			proxied[h]++
		}
	}
	if kinds[0] != kinds[1] || proxied[0] != proxied[1] {
		t.Errorf("reference half: kinds %v, %d proxied; instrumented half: kinds %v, %d proxied",
			kinds[0], proxied[0], kinds[1], proxied[1])
	}
}

func TestOracle(t *testing.T) {
	race := truth(workload.MultiSiteRace())
	if race.addr == 0 || len(race.kinds) != 2 {
		t.Fatalf("multi-site-race truth = %+v, want both race kinds on its racy global", race)
	}
	if got := checkCause(race, rootcause.DataRace, race.addr); got != "" {
		t.Errorf("data race on the racy global rejected: %s", got)
	}
	if got := checkCause(race, rootcause.AtomicityViolation, race.addr); got != "" {
		t.Errorf("atomicity violation on the racy global rejected: %s", got)
	}
	if got := checkCause(race, rootcause.DataRace, race.addr+1); got != failKind {
		t.Errorf("race on another address = %q, want %q", got, failKind)
	}
	dl := truth(workload.DeadlockBug())
	if got := checkCause(dl, rootcause.DataRace, 0); got != failKind {
		t.Errorf("a race for the deadlock = %q, want %q", got, failKind)
	}
	rep := []byte(`{"verdict":"root-cause","cause":{"kind":"deadlock","key":"k"},"replay_matches":true}`)
	if _, got := checkReport(dl, rep); got != "" {
		t.Errorf("good deadlock report rejected: %s", got)
	}
	if _, got := checkReport(dl, bytes.Replace(rep, []byte(`"replay_matches":true`), []byte(`"replay_matches":false`), 1)); got != failReplay {
		t.Errorf("unfaithful report = %q, want %q", got, failReplay)
	}
	if _, got := checkReport(dl, []byte(`{"partial":true}`)); got != failPartial {
		t.Errorf("partial report = %q, want %q", got, failPartial)
	}
	var tl tally
	tl.add("")
	tl.add(failRefused)
	if !tl.correct() || tl.failed != 1 || tl.attempted != 2 {
		t.Errorf("a refusal is a failure but not a wrong answer: %+v", tl)
	}
	tl.add(failDiffers)
	if tl.correct() {
		t.Error("a differing resubmission is a wrong answer")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark lacks", w.Name)
		}
		if _, ok := ungated[w.Name]; ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark calls ungated", w.Name)
		}
	}
	for w := range ungated {
		if workloads[w] == nil {
			t.Errorf("ungated workload %s is not a workload", w)
		}
	}
	if len(spec.Workloads)+len(ungated) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads and %d are ungated, the benchmark has %d",
			len(spec.Workloads), len(ungated), len(workloads))
	}
}

// TestWideSearchTraced runs the library workload briefly in traced mode:
// the staged pipeline must reach the analyzer's cause key on every
// operation, and the result line must carry every per-layer metric.
func TestWideSearchTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	var out, errb bytes.Buffer
	code := realMain([]string{"-workload", "wide-search", "-seed", "5", "-seconds", "0.5", "-trace", "1", "-workdir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("traced run lacks %s", d.name)
		}
	}
	if v := res.Metrics["unattributed_share"].Value; v < 0 || v > 0.05 {
		t.Errorf("wide-search unattributed_share = %v, want under a few percent", v)
	}
}
