package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"

	"res/internal/checkpoint"
	"res/internal/coredump"
	"res/internal/evidence"
	"res/internal/rootcause"
	"res/internal/service"
	"res/internal/vm"
	"res/internal/workload"
)

// expect is an operation's hand-written ground truth, independent of
// the search: the cause kinds that count as right and, for the §4
// concurrency bugs, the racy global the cause must name.
type expect struct {
	kinds []rootcause.Kind
	addr  uint32 // 0 = not checked
}

// racyGlobals names the contended global of the concurrency bugs whose
// workload definition leaves Bug.RacyGlobal empty.
var racyGlobals = map[string]string{"multi-site-race": "ptr"}

// truth derives a bug's ground truth. A data race and an atomicity
// violation on the racy global both count for the concurrency bugs, as
// the E2 experiment accepts.
func truth(b *workload.Bug) expect {
	switch b.Kind {
	case rootcause.DataRace, rootcause.AtomicityViolation:
		g := b.RacyGlobal
		if g == "" {
			g = racyGlobals[b.Name]
		}
		addr, ok := b.GlobalAddr(g)
		if !ok {
			panic(fmt.Sprintf("resbench: %s has no racy global %q", b.Name, g))
		}
		return expect{kinds: []rootcause.Kind{rootcause.DataRace, rootcause.AtomicityViolation}, addr: addr}
	}
	return expect{kinds: []rootcause.Kind{b.Kind}}
}

// runFailing runs the bug's program under cfg, sweeping the scheduler
// seed upward from cfg.Seed, until the bug's wanted failure shows.
func runFailing(b *workload.Bug, cfg vm.Config) (*coredump.Dump, error) {
	p := b.Program()
	for s := int64(0); s < 512; s++ {
		c := cfg
		c.Seed = cfg.Seed + s
		v, err := vm.New(p, c)
		if err != nil {
			return nil, err
		}
		d, err := v.Run()
		if err != nil {
			return nil, err
		}
		if d == nil || d.Fault.Kind == coredump.FaultBudget {
			continue
		}
		if b.WantFault != coredump.FaultNone && d.Fault.Kind != b.WantFault {
			continue
		}
		return d, nil
	}
	return nil, fmt.Errorf("%s never failed from seed %d", b.Name, cfg.Seed)
}

// smoothOrder interleaves classes with the given per-cycle counts so
// that every prefix of the cycle holds each class in close to its share:
// a run that stops mid-cycle still measures the intended mix, which is
// what keeps percentiles steady from seed to seed.
func smoothOrder(counts []int) []int {
	type slot struct {
		pos   float64
		class int
	}
	var slots []slot
	for c, n := range counts {
		for j := 0; j < n; j++ {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(n), c})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool {
		if slots[i].pos != slots[j].pos {
			return slots[i].pos < slots[j].pos
		}
		return slots[i].class < slots[j].class
	})
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s.class
	}
	return out
}

// inputHasher folds every generated input into one digest, so a result
// names exactly the inputs it measured.
type inputHasher struct{ h hash.Hash }

func newInputHasher() *inputHasher { return &inputHasher{h: sha256.New()} }

func (ih *inputHasher) bytes(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	ih.h.Write(n[:])
	ih.h.Write(b)
}

func (ih *inputHasher) str(s string) { ih.bytes([]byte(s)) }

func (ih *inputHasher) sum() string { return hex.EncodeToString(ih.h.Sum(nil))[:16] }

// --- wide-search -------------------------------------------------------

// libItem is one library analysis: a first-sight dump of a workload
// program (its wire bytes), optionally analyzed with its LBR ring.
type libItem struct {
	class string
	bug   *workload.Bug
	dump  []byte
	lbr   bool
	want  expect
}

// wideClass is one kind of wide-search input. Rounds > 0 selects
// AmbiguousDispatch with that many rounds; otherwise bug builds the
// concurrency bug. lbr is the LBR ring size (-1 = no ring).
type wideClass struct {
	name   string
	rounds int
	lbr    int
	bug    func() *workload.Bug
	count  int
}

// wideMix is one 50-operation cycle of wide-search. The counts put the
// median in the middle of the 8-round LBR-16 dispatch block and the 90th
// percentile in the middle of the 6-round unassisted dispatch block,
// with faster and slower classes on either side: a percentile that sat
// on a class boundary would jump between classes from seed to seed. The
// expensive classes (8 rounds unassisted, ~800 attempts, 1.1 s; 9 rounds
// with LBR-16) are kept to one operation a cycle each, so a run yields
// well over the hundred samples its 90th percentile needs even on a slow
// machine. Nine rounds without an LBR ring (over 1,500 attempts, 5 s)
// is left out.
var wideMix = []wideClass{
	{name: "multi-site-race", bug: workload.MultiSiteRace, count: 10},
	{name: "dispatch-6/lbr-16", rounds: 6, lbr: 16, count: 4},
	{name: "dispatch-7/lbr-16", rounds: 7, lbr: 16, count: 3},
	{name: "dispatch-6/lbr-8", rounds: 6, lbr: 8, count: 3},
	{name: "dispatch-8/lbr-16", rounds: 8, lbr: 16, count: 9},
	{name: "dispatch-7/lbr-8", rounds: 7, lbr: 8, count: 5},
	{name: "deadlock-abba", bug: workload.DeadlockBug, count: 6},
	{name: "dispatch-6", rounds: 6, lbr: -1, count: 8},
	{name: "dispatch-9/lbr-16", rounds: 9, lbr: 16, count: 1},
	{name: "dispatch-8", rounds: 8, lbr: -1, count: 1},
}

// wideCycles is how many distinct cycles of inputs a run generates; a
// longer run wraps around (the library keeps no cache, so a repeated
// dump costs what a fresh one does).
const wideCycles = 6

// wideInputs generates the wide-search inputs for a seed.
func wideInputs(seed int64) ([]libItem, string, error) {
	r := rand.New(rand.NewSource(seed))
	counts := make([]int, len(wideMix))
	for i, c := range wideMix {
		counts[i] = c.count
	}
	order := smoothOrder(counts)
	bugs := map[string]*workload.Bug{}
	bugFor := func(c wideClass) *workload.Bug {
		key := c.name
		if c.rounds > 0 {
			key = fmt.Sprintf("dispatch-%d", c.rounds)
		}
		if b := bugs[key]; b != nil {
			return b
		}
		var b *workload.Bug
		if c.rounds > 0 {
			b = workload.AmbiguousDispatch(c.rounds)
		} else {
			b = c.bug()
		}
		bugs[key] = b
		return b
	}
	ih := newInputHasher()
	var items []libItem
	for cyc := 0; cyc < wideCycles; cyc++ {
		for _, ci := range order {
			c := wideMix[ci]
			b := bugFor(c)
			var cfg vm.Config
			if c.rounds > 0 {
				cfg = b.Configs[0]
				in := make([]int64, c.rounds)
				for i := range in {
					in[i] = r.Int63n(1 << 16)
				}
				cfg.Inputs = map[int64][]int64{0: in}
				cfg.LBRSize = c.lbr
			} else {
				cfg = b.Configs[r.Intn(len(b.Configs))]
				cfg.Seed = r.Int63n(1 << 30)
			}
			d, err := runFailing(b, cfg)
			if err != nil {
				return nil, "", err
			}
			raw, err := d.Marshal()
			if err != nil {
				return nil, "", err
			}
			ih.str(c.name)
			ih.bytes(raw)
			items = append(items, libItem{class: c.name, bug: b, dump: raw, lbr: c.lbr > 0, want: truth(b)})
		}
	}
	return items, ih.sum(), nil
}

// --- tuples shipped to a daemon ----------------------------------------

// program is a workload program a daemon serves.
type program struct {
	bug *workload.Bug
	id  string // daemon program ID, filled at registration
}

// tuple is one submission: a dump with its optional evidence and
// checkpoint attachments (canonical wire bytes).
type tuple struct {
	class    string
	prog     int // index into the workload's programs
	dump     []byte
	evidence []byte
	ring     []byte
	opts     *service.SubmitOverrides // per-request analysis options, nil = the daemon's
	want     expect
}

// --- long-exec ---------------------------------------------------------

// Long-exec programs. The lengths are fixed, so seeds differ in what
// varies between real runs (checkpoint intervals, evidence, prefix
// inputs) and not in how long the executions are. A recorded or decoded
// checkpoint holds a full memory image (512 KB), so a ring holds at most
// ringMaxCheckpoints (the shortest interval of a long chain rises to
// match), and rings are recorded on the DistanceChain runs only;
// LongPrefix runs carry evidence alone.
var (
	chainLengths  = []int{1000, 3000, 10000, 30000}
	prefixLengths = []int{1000, 5000, 25000, 100000}
)

const (
	intervalMin        = 16
	intervalMax        = 160
	ringMaxCheckpoints = 200
	ringsPerChain      = 4 // rings per chain program; its tuples cycle through them
)

// longExecOps is how many distinct tuples long-exec generates per second
// of run time: more than the daemon analyzes, so a run does not run out
// of first-sight inputs.
const longExecOps = 9

// ringConfig picks the checkpoint interval of the j-th of n rings for a
// run of the given number of blocks. An anchored analysis searches the
// window between the failure and the anchor (depth ((steps-1) mod
// interval)+1), then the next-wider window to confirm a generic cause,
// so its cost follows depth+interval; the rings stratify that sum over
// its range, and the seed moves each ring only within its stratum. Cap
// is set so the ring never thins.
func ringConfig(r *rand.Rand, j, n int, steps uint64) checkpoint.Config {
	lo := uint64(math.Max(intervalMin, math.Ceil(float64(steps)/ringMaxCheckpoints)))
	wlo, whi := float64(lo+1), float64(2*intervalMax)
	want := wlo + (whi-wlo)*(float64(j)+0.45+0.1*r.Float64())/float64(n)
	best, bestDiff := lo, math.Inf(1)
	for iv := lo; iv <= intervalMax; iv++ {
		w := float64((steps-1)%iv + 1 + iv)
		if d := math.Abs(w - want); d < bestDiff {
			best, bestDiff = iv, d
		}
	}
	return checkpoint.Config{Every: best, Cap: int(steps/best) + 2}
}

// evidenceConfig draws a production evidence recorder configuration: a
// sampled event log, a branch window and a memory probe on one global.
func evidenceConfig(r *rand.Rand, b *workload.Bug, global string) evidence.RecordConfig {
	cfg := evidence.RecordConfig{
		EventEvery:   3 + r.Intn(7),
		EventWindow:  32 + r.Intn(97),
		BranchWindow: 16 + r.Intn(49),
	}
	if addr, ok := b.GlobalAddr(global); ok {
		cfg.ProbeAddrs = []uint32{addr}
		cfg.ProbeEvery = 5 + r.Intn(11)
		cfg.ProbeWindow = 16 + r.Intn(33)
	}
	return cfg
}

// record runs the bug's program once under cfg with the given recorders
// attached and returns the dump; the run must show the bug's failure.
func record(b *workload.Bug, cfg vm.Config, cks []*checkpoint.Recorder, evs []*evidence.Recorder) (*coredump.Dump, error) {
	var hs []vm.Hooks
	for _, ck := range cks {
		hs = append(hs, ck.Hooks())
	}
	for _, ev := range evs {
		hs = append(hs, ev.Hooks())
	}
	cfg.Hooks = vm.MergeHooks(hs...)
	v, err := vm.New(b.Program(), cfg)
	if err != nil {
		return nil, err
	}
	for _, ck := range cks {
		ck.Bind(v)
	}
	for _, ev := range evs {
		ev.Bind(v)
	}
	d, err := v.Run()
	if err != nil {
		return nil, err
	}
	if d == nil || d.Fault.Kind != b.WantFault {
		return nil, fmt.Errorf("%s did not fail as expected", b.Name)
	}
	return d, nil
}

// longExecInputs generates the long-exec programs and n tuples for a
// seed: one DistanceChain (root cause at the start, anchored through its
// ring) to two LongPrefixes (a benign input-dependent prefix, cost flat
// in length). A chain program's dump is fixed by its length,
// so its tuples differ by ring and evidence.
func longExecInputs(seed int64, n int) ([]program, []tuple, string, error) {
	r := rand.New(rand.NewSource(seed))
	var progs []program
	for _, l := range chainLengths {
		progs = append(progs, program{bug: workload.DistanceChain(l)})
	}
	for _, l := range prefixLengths {
		progs = append(progs, program{bug: workload.LongPrefix(l)})
	}
	nChains := len(chainLengths)
	// One chain to two prefixes: the median falls inside the prefix block
	// and the 90th percentile inside the chains, both away from the gap
	// between the two families.
	order := smoothOrder([]int{1, 2})
	// Half the chains are the longest: a POST's time follows its ring's
	// size, so the 30k-block chains' POSTs are the top sixth of all, and
	// the POST p90 falls inside them rather than on the edge between the
	// 10k- and 30k-block rings, where its spread over ten seeds was
	// 0.21-0.26.
	chainOrder := smoothOrder([]int{1, 1, 1, 3})
	tuples := make([]tuple, n)
	chainOps := make([][]int, nChains) // tuple indexes per chain program
	chainIdx, prefixIdx := 0, 0
	for op := 0; op < n; op++ {
		if order[op%len(order)] == 0 {
			k := chainOrder[chainIdx%len(chainOrder)]
			chainOps[k] = append(chainOps[k], op)
			chainIdx++
			continue
		}
		k := nChains + prefixIdx%len(prefixLengths)
		prefixIdx++
		b := progs[k].bug
		cfg := b.Configs[0]
		pin := make([]int64, len(cfg.Inputs[1]))
		for i := range pin {
			pin[i] = r.Int63n(1 << 20)
		}
		cfg.Inputs = map[int64][]int64{0: cfg.Inputs[0], 1: pin}
		ev := evidence.NewRecorder(b.Program(), evidenceConfig(r, b, "acc"))
		d, err := record(b, cfg, nil, []*evidence.Recorder{ev})
		if err != nil {
			return nil, nil, "", err
		}
		t := tuple{class: "long-prefix", prog: k, evidence: ev.Evidence().Encode(), want: truth(b)}
		if t.dump, err = d.Marshal(); err != nil {
			return nil, nil, "", err
		}
		tuples[op] = t
	}
	for k, ops := range chainOps {
		if len(ops) == 0 {
			continue
		}
		b := progs[k].bug
		evs := make([]*evidence.Recorder, len(ops))
		for i := range evs {
			evs[i] = evidence.NewRecorder(b.Program(), evidenceConfig(r, b, "cnt"))
		}
		d, err := record(b, b.Configs[0], nil, evs)
		if err != nil {
			return nil, nil, "", err
		}
		raw, err := d.Marshal()
		if err != nil {
			return nil, nil, "", err
		}
		// Rings one run at a time, to hold one ring's images at once.
		var rings [][]byte
		for j := 0; j < ringsPerChain && j < len(ops); j++ {
			ck := checkpoint.NewRecorder(b.Program(), ringConfig(r, j, ringsPerChain, d.Steps))
			if _, err := record(b, b.Configs[0], []*checkpoint.Recorder{ck}, nil); err != nil {
				return nil, nil, "", err
			}
			rings = append(rings, ck.Ring().Encode())
		}
		for i, op := range ops {
			tuples[op] = tuple{
				class:    "distance-chain",
				prog:     k,
				dump:     raw,
				evidence: evs[i].Evidence().Encode(),
				ring:     rings[i%len(rings)],
				want:     truth(b),
			}
		}
	}
	return progs, tuples, hashTuples(progs, tuples), nil
}

func hashTuples(progs []program, tuples []tuple) string {
	ih := newInputHasher()
	for _, p := range progs {
		ih.str(p.bug.Name)
		ih.str(p.bug.Source)
	}
	for _, t := range tuples {
		ih.str(t.class)
		ih.str(fmt.Sprint(t.prog))
		ih.bytes(t.dump)
		ih.bytes(t.evidence)
		ih.bytes(t.ring)
		if t.opts != nil {
			ih.str(fmt.Sprintf("depth=%d beam=%d", t.opts.MaxDepth, t.opts.BeamWidth))
		}
	}
	return ih.sum()
}

// --- fleet-ingest ------------------------------------------------------

// fleetPrograms are the seven programs of the fleet: the cheap
// first-sight kinds plus the deadlock, which only the working set holds
// (its 0.2 s analysis is not a cheap first sight).
func fleetPrograms() []program {
	return []program{
		{bug: workload.RaceCounter()},
		{bug: workload.MultiSiteRace()},
		{bug: workload.DeadlockBug()},
		{bug: workload.Fig1()},
		{bug: workload.UseAfterFree()},
		{bug: workload.TaintedOverflow()},
		{bug: workload.DistanceChain(12)},
	}
}

// fleetDump makes one seeded, failing tuple of program k. The seed moves
// the scheduler (concurrency bugs), the input (tainted overflow) or the
// LBR ring size, which is part of the dump bytes. Fig1, the
// use-after-free and the short chain have one dump each whatever the
// seed, so their tuples differ by per-request options instead (a deeper
// bound, a beam), which the daemon keys results by; so do the tuples of
// a program whose seeded dumps run out.
func fleetDump(r *rand.Rand, progs []program, k int) ([]byte, *service.SubmitOverrides, error) {
	b := progs[k].bug
	cfg := b.Configs[r.Intn(len(b.Configs))]
	cfg.LBRSize = 1 + r.Intn(64)
	var opts *service.SubmitOverrides
	switch b.Name {
	case "tainted-overflow":
		cfg.Inputs = map[int64][]int64{0: {100000 + r.Int63n(1<<30)}}
	case "fig1-overflow", "use-after-free", "distance-12":
		opts = overrides(r)
	default:
		cfg.Seed = r.Int63n(1 << 30)
	}
	d, err := runFailing(b, cfg)
	if err != nil {
		return nil, nil, err
	}
	raw, err := d.Marshal()
	return raw, opts, err
}

// overrides draws per-request analysis options that differ from the
// daemon's defaults: a deeper bound and, half the time, a beam.
func overrides(r *rand.Rand) *service.SubmitOverrides {
	o := &service.SubmitOverrides{MaxDepth: 25 + r.Intn(64)}
	if r.Intn(2) == 0 {
		o.BeamWidth = 16 + r.Intn(48)
	}
	return o
}

// fleetFirstSight is one cycle of first-sight programs (indexes into
// fleetPrograms; the deadlock is absent). Fig1 and the use-after-free,
// whose analyses cost the same whatever the seed, have the larger shares,
// so that the median falls inside the Fig1 block rather than on the edge
// between two programs whose costs the seed moves.
var fleetFirstSight = func() []int {
	progs := []int{5, 4, 3, 1, 6, 0} // tainted overflow, use-after-free, fig1, multi-site race, chain, race counter
	counts := []int{2, 3, 3, 2, 2, 2}
	var out []int
	for _, c := range smoothOrder(counts) {
		out = append(out, progs[c])
	}
	return out
}()

// fleetInputs generates the working set (analyzed during set-up, then
// resubmitted) and the pool of first-sight dumps for a seed. Every dump
// is distinct from every other.
func fleetInputs(seed int64, working, fresh int) ([]program, []tuple, []tuple, string, error) {
	r := rand.New(rand.NewSource(seed))
	progs := fleetPrograms()
	seen := map[string]bool{}
	mk := func(k int) (tuple, error) {
		for try := 0; try < 64; try++ {
			raw, opts, err := fleetDump(r, progs, k)
			if err != nil {
				return tuple{}, err
			}
			if opts == nil && try >= 8 {
				// The program's seeded dumps keep repeating: vary the
				// tuple's options instead.
				opts = overrides(r)
			}
			key := fmt.Sprintf("%x %v", raw, opts)
			if !seen[key] {
				seen[key] = true
				return tuple{class: progs[k].bug.Name, prog: k, dump: raw, opts: opts, want: truth(progs[k].bug)}, nil
			}
		}
		return tuple{}, fmt.Errorf("%s: no fresh dump in 64 tries", progs[k].bug.Name)
	}
	// The working set holds one deadlock dump and otherwise cycles
	// through the cheap programs.
	wsOrder := smoothOrder([]int{6, 6, 0, 3, 3, 6, 6})
	first, err := mk(2)
	if err != nil {
		return nil, nil, nil, "", err
	}
	ws := []tuple{first}
	var pool []tuple
	for i := 1; i < working; i++ {
		t, err := mk(wsOrder[i%len(wsOrder)])
		if err != nil {
			return nil, nil, nil, "", err
		}
		ws = append(ws, t)
	}
	for i := 0; i < fresh; i++ {
		t, err := mk(fleetFirstSight[i%len(fleetFirstSight)])
		if err != nil {
			return nil, nil, nil, "", err
		}
		pool = append(pool, t)
	}
	return progs, ws, pool, hashTuples(progs, append(append([]tuple(nil), ws...), pool...)), nil
}
