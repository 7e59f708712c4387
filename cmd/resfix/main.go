// Command resfix verifies a candidate fix against a reproduced failure:
// it analyzes the coredump to synthesize the failure suffix, applies the
// patch to the program source, replays the suffix through the patched
// program, and reports a verdict.
//
// Usage:
//
//	resfix -prog crash.s -dump core.dump -patch fix.patch [-json]
//	resfix -prog crash.s -dump core.dump -patch fix.patch -submit host:8467
//
// The patch file is accepted in either form: the human text format
//
//	replace check
//	    const r3, 5
//	end
//
// (operations replace/insert/delete keyed by assembler label) or the
// canonical RESPATCH1 wire bytes. The verdict is printed as a greppable
// "verdict: ..." line and doubles as the exit code: 0 for fixed, 1 for
// not-fixed, 2 for inconclusive (the patch diverges the execution before
// the reproduced window can judge it — record a fresh failure of the
// patched program instead).
//
// With -submit the verification runs server-side (POST /v1/fixes):
// verdicts are cached by the (program, dump, options, patch) tuple, so a
// fleet asking about the same candidate fix shares one verification.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"res"
	"res/internal/cli"
	"res/internal/service"
)

func main() {
	var (
		progPath  = flag.String("prog", "", "assembly source file (required)")
		dumpPath  = flag.String("dump", "", "coredump file (required)")
		patchPath = flag.String("patch", "", "patch file, text or RESPATCH1 wire form (required)")
		timeout   = flag.Duration("timeout", 0, "analysis/verification deadline (0 = none)")
		jsonOut   = flag.Bool("json", false, "emit the machine-readable JSON verdict on stdout")
		submit    = flag.String("submit", "", "verify via a resd daemon at this address instead of locally")
		version   = flag.Bool("version", false, "print version and exit")
		logFormat = flag.String("log-format", "text", cli.LogFormatUsage)
	)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("resfix"))
		return
	}
	if err := cli.SetupLogging(*logFormat, "", nil); err != nil {
		cli.Fatal(err)
	}
	if *progPath == "" || *dumpPath == "" || *patchPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	patchBytes, err := os.ReadFile(*patchPath)
	if err != nil {
		cli.Fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *submit != "" {
		verifyRemote(ctx, *submit, *progPath, *dumpPath, patchBytes, *jsonOut)
		return
	}

	patch, err := res.DecodePatch(patchBytes)
	if err != nil {
		cli.Fatal(err)
	}
	src, err := os.ReadFile(*progPath)
	if err != nil {
		cli.Fatal(err)
	}
	p, err := cli.LoadProgram(*progPath)
	if err != nil {
		cli.Fatal(err)
	}
	d, evBytes, ckBytes, err := cli.LoadDump(*dumpPath, p)
	if err != nil {
		cli.Fatal(err)
	}
	opts := []res.Option{}
	if len(evBytes) > 0 {
		set, derr := res.DecodeEvidence(evBytes)
		if derr != nil {
			cli.Fatal(derr)
		}
		opts = append(opts, res.WithEvidence(set...))
	}
	if len(ckBytes) > 0 {
		ring, derr := res.DecodeCheckpoints(ckBytes)
		if derr != nil {
			cli.Fatal(derr)
		}
		if !ring.Empty() {
			opts = append(opts, res.WithCheckpoints(ring))
		}
	}
	if !*jsonOut {
		fmt.Printf("failure: %s\n", d.Fault)
		fmt.Printf("patch: %s (%d ops)\n", patch.Fingerprint(), len(patch.Ops))
	}
	r, err := res.NewAnalyzer(p, opts...).Analyze(ctx, d)
	if err != nil && r == nil {
		cli.Fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "analysis cut short: %v\n", err)
	}
	v, err := res.VerifyFix(string(src), patch, r, d)
	if err != nil {
		cli.Fatal(err)
	}
	report(v, *jsonOut)
}

// verifyRemote ships the program source, dump, and patch to a resd
// daemon (POST /v1/fixes) and polls the verdict job to completion.
func verifyRemote(ctx context.Context, addr, progPath, dumpPath string, patchBytes []byte, jsonOut bool) {
	src, err := os.ReadFile(progPath)
	if err != nil {
		cli.Fatal(err)
	}
	dump, _, _, err := cli.SplitDumpFile(dumpPath)
	if err != nil {
		cli.Fatal(err)
	}
	c := service.NewClient(addr)
	job, err := c.SubmitFix(ctx, service.SubmitFixRequest{
		ProgramName:   filepath.Base(progPath),
		ProgramSource: string(src),
		Patch:         patchBytes,
		Dump:          dump,
	})
	if err != nil {
		cli.Fatal(err)
	}
	if !job.Status.Terminal() {
		fmt.Fprintf(os.Stderr, "submitted fix job %s (status %s), polling...\n", job.ID, job.Status)
		if job, err = c.PollResult(ctx, job.ID, 250*time.Millisecond); err != nil {
			cli.Fatal(err)
		}
	}
	if job.Status != service.StatusDone {
		cli.Fatal(fmt.Errorf("fix job %s ended %s: %s", job.ID, job.Status, job.Error))
	}
	if job.Cached {
		fmt.Fprintln(os.Stderr, "served from the result store (cache hit)")
	}
	var v res.FixVerdict
	if err := json.Unmarshal(job.Report, &v); err != nil {
		cli.Fatal(err)
	}
	if jsonOut {
		fmt.Println(string(job.Report))
		os.Exit(exitCode(&v))
	}
	report(&v, false)
}

// report prints the verdict and exits with its code: fixed=0,
// not-fixed=1, inconclusive=2.
func report(v *res.FixVerdict, jsonOut bool) {
	if jsonOut {
		buf, err := json.Marshal(v)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Println(string(buf))
	} else {
		fmt.Printf("verdict: %s\n", v.Verdict)
		fmt.Printf("reason: %s\n", v.Reason)
		if v.Residual != "" {
			fmt.Printf("residual constraint: %s (satisfiable: %v)\n", v.Residual, v.ResidualSat)
		}
	}
	os.Exit(exitCode(v))
}

// exitCode maps a verdict to the process exit code: fixed=0,
// not-fixed=1, inconclusive=2.
func exitCode(v *res.FixVerdict) int {
	switch v.Verdict {
	case res.FixVerdictFixed:
		return 0
	case res.FixVerdictNotFixed:
		return 1
	default:
		return 2
	}
}
