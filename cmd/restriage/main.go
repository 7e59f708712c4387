// Command restriage compares bug-report bucketing strategies (§3.1): the
// WER-style call-stack baseline against RES root-cause bucketing, over a
// corpus of coredumps.
//
// With -demo it generates the built-in corpus (several bugs, several
// schedule-dependent manifestations each) and prints both evaluations;
// with -manifest it reads lines of the form
//
//	<program.s> <dump file> <ground truth label> [evidence file]
//
// and evaluates those. One analysis session is opened per distinct
// program and reused for every report of that program; -parallel fans the
// corpus out over a worker pool, and -timeout bounds the whole run.
//
// With -evidence, evidence attachments (the manifest's optional fourth
// column, or attachments embedded in the dump files by
// resrun -record-evidence) prune each report's analysis; the evidence
// fingerprint joins the cache key, so cached and fresh classifications
// under different evidence never collide.
//
// With -cache, results are kept in a content-addressed store keyed by
// (program, dump, options) fingerprints — duplicate dumps across the
// batch (the normal shape of a production report stream) skip re-analysis
// entirely, and the hit/miss counts are reported with the evaluation.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"res"
	"res/internal/cli"
	"res/internal/coredump"
	"res/internal/prog"
	"res/internal/store"
	"res/internal/triage"
	"res/internal/workload"
)

func main() {
	var (
		demo      = flag.Bool("demo", false, "run on the built-in workload corpus")
		manifest  = flag.String("manifest", "", "manifest file: prog dump label per line")
		perBug    = flag.Int("per-bug", 4, "demo: reports generated per bug")
		depth     = flag.Int("depth", 14, "RES suffix depth budget")
		buckets   = flag.Bool("buckets", false, "print bucket composition")
		parallel  = flag.Int("parallel", 1, "concurrent analyses (<1 = GOMAXPROCS)")
		searchP   = flag.Int("search-parallel", 1, "candidate-level parallelism within each analysis (0 = all cores; keep 1 when -parallel already saturates the machine)")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole corpus (0 = none)")
		cache     = flag.Bool("cache", false, "dedup duplicate dumps through a content-addressed result store")
		useEv     = flag.Bool("evidence", false, "prune analyses with evidence attachments (manifest 4th column or embedded in dump files)")
		version   = flag.Bool("version", false, "print version and exit")
		logFormat = flag.String("log-format", "text", cli.LogFormatUsage)
	)
	flag.Parse()

	if *version {
		fmt.Println(cli.VersionString("restriage"))
		return
	}
	if err := cli.SetupLogging(*logFormat, "", nil); err != nil {
		cli.Fatal(err)
	}
	var corpus []triage.Item
	switch {
	case *demo:
		corpus = demoCorpus(*perBug)
	case *manifest != "":
		var err error
		corpus, err = loadManifest(*manifest)
		if err != nil {
			cli.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("corpus: %d reports\n\n", len(corpus))

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// One long-lived analysis session per distinct program: the
	// predecessor index is computed once and shared by every report of
	// that program, across all workers.
	sessions := make(map[*prog.Program]*res.Analyzer)
	for _, it := range corpus {
		if _, ok := sessions[it.Prog]; !ok {
			sessions[it.Prog] = res.NewAnalyzer(it.Prog, res.WithMaxDepth(*depth), res.WithSearchParallelism(*searchP))
		}
	}

	var st *store.Store
	if *cache {
		st = store.New(0)
	}
	start := time.Now()
	keys, errs, hits, misses := classifyAll(ctx, sessions, corpus, *parallel, *depth, st, *useEv)
	elapsed := time.Since(start)

	wer := triage.StackClassifier()
	rc := memoClassifier(corpus, keys, errs)

	fmt.Printf("RES analyzed %d reports in %v (parallel=%d)\n", len(corpus), elapsed.Round(time.Millisecond), *parallel)
	if *cache {
		fmt.Printf("cache: %d hits, %d misses (%.0f%% of analyses skipped)\n",
			hits, misses, 100*float64(hits)/float64(max(hits+misses, 1)))
	}
	fmt.Println()
	fmt.Printf("WER-style (stack):      %v\n", triage.Evaluate(corpus, wer))
	fmt.Printf("RES (root cause):       %v\n", triage.Evaluate(corpus, rc))
	if *buckets {
		fmt.Println("\nstack buckets:")
		fmt.Print(triage.BucketSummary(corpus, wer))
		fmt.Println("\nroot-cause buckets:")
		fmt.Print(triage.BucketSummary(corpus, rc))
	}
}

// classifyAll analyzes every corpus item through its program's session,
// one AnalyzeBatch per program group. Results are positional and
// identical to a sequential run (each analysis is independent and
// deterministic).
//
// With a non-nil store, each (program, dump, options) tuple is looked up
// first: duplicate dumps in the batch — and any tuple analyzed by an
// earlier batch sharing the store — skip re-analysis, and only cache
// misses reach the worker pool. Complete (non-partial) results are stored
// as their deterministic JSON reports, so a cached classification is
// byte-for-byte the one a fresh analysis would have produced.
//
// With useEvidence, an item's evidence attachment prunes its analysis
// and its fingerprint joins the item's cache key; evidence-carrying
// items are analyzed individually (evidence is per-dump, a batch shares
// its options), evidence-free items still batch.
func classifyAll(ctx context.Context, sessions map[*prog.Program]*res.Analyzer, corpus []triage.Item, parallelism, depth int, st *store.Store, useEvidence bool) (keys []string, errs []error, hits, misses int) {
	keys = make([]string, len(corpus))
	errs = make([]error, len(corpus))
	groups := make(map[*prog.Program][]int)
	for i, it := range corpus {
		groups[it.Prog] = append(groups[it.Prog], i)
	}
	baseDesc := fmt.Sprintf("restriage depth=%d", depth)
	evidenceOf := make(map[int]res.EvidenceSet)
	itemFP := func(i int) store.Fingerprint {
		desc := baseDesc
		if set := evidenceOf[i]; len(set) > 0 {
			desc += " evidence=" + set.Fingerprint()
		}
		return store.OptionsFingerprint(desc)
	}
	if useEvidence {
		for i, it := range corpus {
			if len(it.Evidence) == 0 {
				continue
			}
			set, err := res.DecodeEvidence(it.Evidence)
			if err != nil {
				errs[i] = err
				continue
			}
			if len(set) > 0 {
				evidenceOf[i] = set
			}
		}
	}
	for p, idxs := range groups {
		// Resolve cache hits and dedup duplicates first: `fresh` keeps one
		// representative position per distinct tuple; `sharing` maps each
		// representative to every position awaiting its result (duplicates
		// within the batch count as hits — they skip re-analysis).
		var fresh []int
		sharing := make(map[int][]int, len(idxs))
		resultKeys := make(map[int]store.Key, len(idxs))
		if st != nil {
			progFP, err := store.ProgramFingerprint(p)
			if err != nil {
				cli.Fatal(err)
			}
			firstSeen := make(map[store.Key]int, len(idxs))
			for _, i := range idxs {
				if errs[i] != nil {
					continue // bad evidence attachment
				}
				dumpFP, _, err := store.DumpFingerprint(corpus[i].Dump)
				if err != nil {
					errs[i] = err
					continue
				}
				k := store.ResultKey(progFP, dumpFP, itemFP(i))
				if rep, ok := st.Get(k); ok {
					hits++
					keys[i], errs[i] = keyFromReport(corpus[i].App, rep)
					continue
				}
				if rep, dup := firstSeen[k]; dup {
					hits++
					sharing[rep] = append(sharing[rep], i)
					continue
				}
				misses++
				firstSeen[k] = i
				resultKeys[i] = k
				fresh = append(fresh, i)
				sharing[i] = []int{i}
			}
		} else {
			for _, i := range idxs {
				if errs[i] != nil {
					continue
				}
				fresh = append(fresh, i)
				sharing[i] = []int{i}
			}
		}
		if len(fresh) == 0 {
			continue
		}
		// Evidence is per-dump while a batch shares its options, so
		// evidence-carrying representatives run individually — fanned over
		// the same worker count as the batch; the rest batch as before.
		var batchFresh, evFresh []int
		resultOf := make(map[int]*res.Result, len(fresh))
		for _, i := range fresh {
			if len(evidenceOf[i]) > 0 {
				evFresh = append(evFresh, i)
			} else {
				batchFresh = append(batchFresh, i)
			}
		}
		if len(evFresh) > 0 {
			workers := parallelism
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			if workers > len(evFresh) {
				workers = len(evFresh)
			}
			evResults := make([]*res.Result, len(evFresh))
			jobs := make(chan int)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range jobs {
						i := evFresh[j]
						r, aerr := sessions[p].Analyze(ctx, corpus[i].Dump, res.WithEvidence(evidenceOf[i]...))
						if aerr != nil && r == nil {
							fmt.Fprintf(os.Stderr, "analyze: %v\n", aerr)
						}
						evResults[j] = r
					}
				}()
			}
			for j := range evFresh {
				jobs <- j
			}
			close(jobs)
			wg.Wait()
			for j, i := range evFresh {
				resultOf[i] = evResults[j]
			}
		}
		if len(batchFresh) > 0 {
			dumps := make([]*coredump.Dump, len(batchFresh))
			for j, i := range batchFresh {
				dumps[j] = corpus[i].Dump
			}
			results, err := sessions[p].AnalyzeBatch(ctx, dumps, parallelism)
			if err != nil {
				// Per-dump failures surface positionally below; the joined
				// batch error is diagnostic only.
				fmt.Fprintf(os.Stderr, "batch: %v\n", err)
			}
			for j, i := range batchFresh {
				resultOf[i] = results[j]
			}
		}
		for _, rep := range fresh {
			r := resultOf[rep]
			for _, i := range sharing[rep] {
				switch {
				case r == nil:
					errs[i] = fmt.Errorf("no root cause")
				case r.Cause != nil:
					// A deadline-cut analysis still returns its partial
					// result; a cause it already verified by faithful
					// replay is a valid bucketing key.
					keys[i] = corpus[i].App + "|" + r.Cause.Key()
				default:
					errs[i] = fmt.Errorf("no root cause")
				}
			}
			if r != nil && st != nil && !r.Partial {
				if out, jerr := r.JSON(); jerr == nil {
					st.Put(resultKeys[rep], out)
				}
			}
		}
	}
	return keys, errs, hits, misses
}

// keyFromReport recovers the bucketing key from a stored report, via the
// report's exported schema so cached and fresh classifications agree.
func keyFromReport(app string, rep []byte) (string, error) {
	var parsed res.ReportJSON
	if err := json.Unmarshal(rep, &parsed); err != nil {
		return "", err
	}
	if parsed.Cause == nil || parsed.Cause.Key == "" {
		return "", fmt.Errorf("no root cause")
	}
	return app + "|" + parsed.Cause.Key, nil
}

// memoClassifier serves the precomputed classifications, keyed by the
// item's dump (each report carries a distinct dump object).
func memoClassifier(corpus []triage.Item, keys []string, errs []error) triage.Classifier {
	byDump := make(map[*coredump.Dump]int, len(corpus))
	for i, it := range corpus {
		byDump[it.Dump] = i
	}
	return func(it triage.Item) (string, error) {
		i, ok := byDump[it.Dump]
		if !ok {
			return "", fmt.Errorf("unknown report")
		}
		return keys[i], errs[i]
	}
}

func demoCorpus(perBug int) []triage.Item {
	var corpus []triage.Item
	for _, bug := range workload.TriageCorpus() {
		p := bug.Program()
		quota := (perBug + len(bug.Configs) - 1) / len(bug.Configs)
		found := 0
		for _, base := range bug.Configs {
			got := 0
			for s := int64(0); s < 300 && got < quota && found < perBug; s++ {
				cfg := base
				cfg.Seed = s
				d, err := res.Run(p, cfg)
				if err != nil {
					cli.Fatal(err)
				}
				if d == nil || d.Fault.Kind == coredump.FaultBudget {
					continue
				}
				if bug.WantFault != coredump.FaultNone && d.Fault.Kind != bug.WantFault {
					continue
				}
				corpus = append(corpus, triage.Item{Label: bug.Name, App: bug.AppName(), Dump: d, Prog: p})
				found++
				got++
			}
		}
	}
	return corpus
}

func loadManifest(path string) ([]triage.Item, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	progs := make(map[string]*prog.Program)
	var corpus []triage.Item
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("%s:%d: want 'prog dump label [evidence]'", path, line)
		}
		p, ok := progs[fields[0]]
		if !ok {
			var err error
			p, err = cli.LoadProgram(fields[0])
			if err != nil {
				return nil, err
			}
			progs[fields[0]] = p
		}
		d, evBytes, _, err := cli.LoadDump(fields[1], p)
		if err != nil {
			return nil, err
		}
		if len(fields) == 4 {
			if evBytes, err = os.ReadFile(fields[3]); err != nil {
				return nil, err
			}
		}
		corpus = append(corpus, triage.Item{Label: fields[2], Dump: d, Prog: p, Evidence: evBytes})
	}
	return corpus, sc.Err()
}
