// Command resdbg is the interactive debugger over a synthesized suffix:
// the paper's §3.3 experience of stepping (forward AND backward) through
// the reconstructed last milliseconds of a failed production execution,
// with no recording of the original run.
//
// Usage:
//
//	resdbg -prog crash.s -dump core.dump
//
// Commands: step (s), rstep (rs), continue (c), break <pc>, watch <addr>,
// regs [tid], mem <addr> [n], where, goto <step>, restart, fault, quit.
//
// When the dump embeds a checkpoint ring (resrun -record-checkpoints),
// the ring both anchors suffix synthesis — bounding its cost by the
// checkpoint interval — and enables the goto command: "goto <step>"
// materializes the machine exactly as it was when that many blocks had
// executed, by restoring the nearest preceding checkpoint and replaying
// the recorded schedule from there.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"res"
	"res/internal/checkpoint"
	"res/internal/cli"
	"res/internal/coredump"
	"res/internal/replay"
)

func main() {
	var (
		progPath  = flag.String("prog", "", "assembly source file (required)")
		dumpPath  = flag.String("dump", "", "coredump file (required)")
		depth     = flag.Int("depth", 0, "maximum suffix length (0 = default)")
		timeout   = flag.Duration("timeout", 0, "synthesis deadline (0 = none)")
		searchP   = flag.Int("search-parallel", 0, "candidate-level search parallelism (0 = all cores, 1 = sequential)")
		ignoreCk  = flag.Bool("ignore-checkpoints", false, "drop any checkpoint ring embedded in the dump file")
		version   = flag.Bool("version", false, "print version and exit")
		logFormat = flag.String("log-format", "text", cli.LogFormatUsage)
	)
	flag.Parse()
	if *version {
		fmt.Println(cli.VersionString("resdbg"))
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
	d, _, ckBytes, err := cli.LoadDump(*dumpPath, p)
	if err != nil {
		cli.Fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []res.Option{res.WithMaxDepth(*depth), res.WithSearchParallelism(*searchP)}
	var nav *checkpoint.Nav
	if len(ckBytes) > 0 && !*ignoreCk {
		ring, derr := res.DecodeCheckpoints(ckBytes)
		if derr != nil {
			cli.Fatal(derr)
		}
		if !ring.Empty() {
			opts = append(opts, res.WithCheckpoints(ring))
			if nav, err = checkpoint.NewNav(p, ring, d); err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint navigation unavailable: %v\n", err)
			} else {
				fmt.Printf("checkpoints: %d (interval %d); goto <step> available\n",
					len(ring.Checkpoints), ring.Interval)
			}
		}
	}

	fmt.Printf("failure: %s\nsynthesizing execution suffix...\n", d.Fault)
	r, err := res.NewAnalyzer(p, opts...).Analyze(ctx, d)
	if err != nil && r == nil {
		cli.Fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "synthesis cut short: %v\n", err)
	}
	if r.Synthesized == nil {
		if r.HardwareSuspect {
			fmt.Println("no feasible suffix: likely hardware error; nothing to debug")
		} else {
			fmt.Println("no suffix synthesized within budget")
		}
		os.Exit(1)
	}
	fmt.Printf("suffix: %d blocks; root cause: %s\n", r.Suffix.Len(), r.Cause)
	if r.CheckpointAnchor != nil {
		fmt.Printf("anchored at checkpoint step %d (suffix depth %d)\n",
			r.CheckpointAnchor.Step, r.CheckpointAnchor.Depth)
	}

	dbg, err := replay.NewDebugger(p, r.Synthesized, d)
	if err != nil {
		cli.Fatal(err)
	}
	repl(p, dbg, nav, os.Stdin, os.Stdout)
}

func repl(p *res.Program, dbg *replay.Debugger, nav *checkpoint.Nav, in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "(resdbg) ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "(resdbg) ")
			continue
		}
		arg := func(i int) (int64, bool) {
			if i >= len(fields) {
				return 0, false
			}
			v, err := strconv.ParseInt(fields[i], 0, 64)
			return v, err == nil
		}
		switch fields[0] {
		case "q", "quit", "exit":
			return
		case "s", "step":
			fmt.Fprintln(out, dbg.Step())
		case "rs", "rstep":
			s, err := dbg.ReverseStep()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintf(out, "%v (pos %d/%d)\n", s, dbg.Pos(), dbg.Len())
			}
		case "c", "continue":
			fmt.Fprintln(out, dbg.Continue())
		case "fault":
			fmt.Fprintln(out, dbg.RunToFault())
		case "break", "b":
			if pc, ok := arg(1); ok {
				dbg.Break(int(pc))
				fmt.Fprintf(out, "breakpoint at pc %d\n", pc)
			} else {
				fmt.Fprintln(out, "usage: break <pc>")
			}
		case "watch", "w":
			if a, ok := arg(1); ok {
				dbg.Watch(uint32(a))
				fmt.Fprintf(out, "watchpoint at mem[%d]\n", a)
			} else {
				fmt.Fprintln(out, "usage: watch <addr>")
			}
		case "regs":
			tid := int64(0)
			if v, ok := arg(1); ok {
				tid = v
			}
			regs, err := dbg.Regs(int(tid))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			for i, v := range regs {
				if v != 0 {
					fmt.Fprintf(out, "  r%-2d = %d\n", i, v)
				}
			}
		case "mem":
			a, ok := arg(1)
			if !ok {
				fmt.Fprintln(out, "usage: mem <addr> [count]")
				break
			}
			n := int64(1)
			if v, ok := arg(2); ok {
				n = v
			}
			for i := int64(0); i < n; i++ {
				v, err := dbg.ReadMem(uint32(a + i))
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					break
				}
				fmt.Fprintf(out, "  mem[%d] = %d\n", a+i, v)
			}
		case "where":
			tid, pc, fn := dbg.Where()
			fmt.Fprintf(out, "next: t%d at pc %d (%s), pos %d/%d\n", tid, pc, fn, dbg.Pos(), dbg.Len())
			if pc >= 0 && pc < len(p.Code) {
				fmt.Fprintf(out, "  %s\n", p.Code[pc].String())
			}
		case "goto", "g":
			if nav == nil {
				fmt.Fprintln(out, "error: no checkpoint ring attached to the dump (record one with resrun -record-checkpoints)")
				break
			}
			st, ok := arg(1)
			if !ok || st < 0 {
				fmt.Fprintln(out, "usage: goto <step>")
				break
			}
			v, ck, fault, err := nav.Goto(uint64(st))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			fmt.Fprintf(out, "at step %d (restored checkpoint at step %d, replayed %d blocks)\n",
				st, ck.Step, uint64(st)-ck.Step)
			for _, t := range v.Threads {
				if t.State == coredump.ThreadExited {
					fmt.Fprintf(out, "  t%d exited\n", t.ID)
					continue
				}
				fmt.Fprintf(out, "  t%d at pc %d", t.ID, t.PC)
				if t.PC >= 0 && t.PC < len(p.Code) {
					fmt.Fprintf(out, "  %s", p.Code[t.PC].String())
				}
				fmt.Fprintln(out)
			}
			if fault != nil {
				fmt.Fprintf(out, "  fault: %s\n", fault)
			}
		case "restart":
			if err := dbg.Restart(); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "rewound to suffix start")
			}
		case "help", "h":
			fmt.Fprintln(out, "commands: step rstep continue fault break <pc> watch <addr> regs [tid] mem <addr> [n] where goto <step> restart quit")
		default:
			fmt.Fprintf(out, "unknown command %q (try help)\n", fields[0])
		}
		fmt.Fprint(out, "(resdbg) ")
	}
}
