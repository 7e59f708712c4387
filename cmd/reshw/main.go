// Command reshw answers the §3.2 question for a coredump: software bug or
// hardware error? It can also inject simulated hardware faults into a dump
// for testing the classifier.
//
// Usage:
//
//	reshw -prog crash.s -dump core.dump                 classify
//	reshw -prog crash.s -dump core.dump -flip 16:3 -o corrupted.dump
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"res/internal/cli"
	"res/internal/core"
	"res/internal/hwerr"
)

func main() {
	var (
		progPath  = flag.String("prog", "", "assembly source file (required)")
		dumpPath  = flag.String("dump", "", "coredump file (required)")
		depth     = flag.Int("depth", 0, "suffix search depth (0 = default)")
		flip      = flag.String("flip", "", "inject a memory bit flip, addr:bit")
		flipReg   = flag.String("flip-reg", "", "inject a register bit flip, tid:reg:bit")
		out       = flag.String("o", "", "output path for the corrupted dump (with -flip/-flip-reg)")
		version   = flag.Bool("version", false, "print version and exit")
		logFormat = flag.String("log-format", "text", cli.LogFormatUsage)
	)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("reshw"))
		return
	}
	if err := cli.SetupLogging(*logFormat, "", nil); err != nil {
		cli.Fatal(err)
	}
	if *progPath == "" || *dumpPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	p, err := cli.LoadProgram(*progPath)
	if err != nil {
		cli.Fatal(err)
	}
	d, _, _, err := cli.LoadDump(*dumpPath, p)
	if err != nil {
		cli.Fatal(err)
	}

	if *flip != "" || *flipReg != "" {
		if *out == "" {
			cli.Fatal(fmt.Errorf("injection requires -o"))
		}
		switch {
		case *flip != "":
			parts := strings.Split(*flip, ":")
			if len(parts) != 2 {
				cli.Fatal(fmt.Errorf("-flip wants addr:bit"))
			}
			addr, err1 := strconv.ParseUint(parts[0], 0, 32)
			bit, err2 := strconv.ParseUint(parts[1], 0, 6)
			if err1 != nil || err2 != nil {
				cli.Fatal(fmt.Errorf("-flip wants addr:bit"))
			}
			nd, inj := hwerr.FlipMemoryBit(d, uint32(addr), uint(bit))
			fmt.Println("injected:", inj)
			d = nd
		case *flipReg != "":
			parts := strings.Split(*flipReg, ":")
			if len(parts) != 3 {
				cli.Fatal(fmt.Errorf("-flip-reg wants tid:reg:bit"))
			}
			tid, _ := strconv.Atoi(parts[0])
			reg, _ := strconv.Atoi(parts[1])
			bit, _ := strconv.ParseUint(parts[2], 0, 6)
			nd, inj, err := hwerr.FlipRegisterBit(d, tid, reg, uint(bit))
			if err != nil {
				cli.Fatal(err)
			}
			fmt.Println("injected:", inj)
			d = nd
		}
		if err := cli.SaveDump(*out, d); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("corrupted dump written to %s\n", *out)
		return
	}

	v, err := hwerr.Classify(p, d, core.Options{MaxDepth: *depth})
	if err != nil {
		cli.Fatal(err)
	}
	switch {
	case v.HardwareSuspect:
		fmt.Println("verdict: LIKELY HARDWARE ERROR — no feasible execution suffix reaches this coredump")
	case v.Inconclusive:
		fmt.Println("verdict: inconclusive (analysis hit unknowns)")
	default:
		fmt.Println("verdict: consistent with a software execution")
	}
	fmt.Printf("stats: attempts=%d feasible=%d infeasible=%d unknown=%d\n",
		v.Stats.Attempts, v.Stats.Feasible, v.Stats.Infeasible, v.Stats.Unknown)
}
