// Package cli holds the small helpers shared by the command-line tools:
// parsing of input-channel specs, dump/program loading, and uniform error
// reporting.
package cli

import (
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"strings"

	"res/internal/asm"
	"res/internal/coredump"
	"res/internal/obs"
	"res/internal/prog"
)

// VersionString is the uniform -version output for every tool: the build
// version (stamped at link time via
// -ldflags "-X res/internal/obs.Version=v1.2.3") and the Go toolchain.
func VersionString(tool string) string {
	return fmt.Sprintf("%s %s (%s)", tool, obs.Version, runtime.Version())
}

// ParseInputs parses repeated "-input ch=v1,v2,..." specs into the VM's
// input map.
func ParseInputs(specs []string) (map[int64][]int64, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	out := make(map[int64][]int64)
	for _, spec := range specs {
		ch, vals, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("input spec %q: want ch=v1,v2,...", spec)
		}
		c, err := strconv.ParseInt(strings.TrimSpace(ch), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("input spec %q: bad channel: %v", spec, err)
		}
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				continue
			}
			x, err := strconv.ParseInt(v, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("input spec %q: bad value %q: %v", spec, v, err)
			}
			out[c] = append(out[c], x)
		}
	}
	return out, nil
}

// InputSpecs is a repeatable string flag.
type InputSpecs []string

func (s *InputSpecs) String() string { return strings.Join(*s, ";") }

// Set appends one occurrence of the flag.
func (s *InputSpecs) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// LoadProgram assembles a program from a source file.
func LoadProgram(path string) (*prog.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := asm.Assemble(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// LoadDump reads a coredump file of program p in either the plain or the
// attachment-container form and returns the dump together with its
// evidence and checkpoint attachments' wire bytes (nil when the file
// carries none). A dump whose image size is not p's is rejected before
// its image is allocated. Damaged attachment areas degrade the way
// SplitDumpFile describes.
func LoadDump(path string, p *prog.Program) (d *coredump.Dump, evidence, checkpoints []byte, err error) {
	dumpBytes, evidence, checkpoints, err := SplitDumpFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if d, err = coredump.UnmarshalFor(dumpBytes, p.Layout.MemSize); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, evidence, checkpoints, nil
}

// SplitDumpFile reads a coredump file and returns its raw dump bytes and
// evidence and checkpoint attachment bytes without decoding the dump —
// the shape remote submission ships over the wire. A container whose
// attachment area is damaged degrades: the dump bytes still load, the
// attachments are dropped with a warning on stderr — a corrupt sidecar
// must not make the crash dump unreadable.
func SplitDumpFile(path string) (dump, evidence, checkpoints []byte, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	dumpBytes, att, warn, err := coredump.DecodeAttachedLenient(b)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if warn != "" {
		fmt.Fprintf(os.Stderr, "warning: %s: %s\n", path, warn)
	}
	return dumpBytes, att[coredump.EvidenceAttachment], att[coredump.CheckpointAttachment], nil
}

// SaveDump writes a coredump to a file.
func SaveDump(path string, d *coredump.Dump) error {
	b, err := d.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// Fatal prints an error and exits non-zero.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// LogFormatUsage is the shared -log-format flag help text.
const LogFormatUsage = "structured log format: text or json"

// SetupLogging installs the process-wide structured logger: slog to
// stderr in the given format ("text" or "json"; "" = text), every record
// tagged with the node identity when non-empty, and warn-or-worse
// records teed into the flight recorder when one is supplied. Every
// binary calls this right after flag parsing so all subsequent output
// is uniformly structured.
func SetupLogging(format, node string, fr *obs.FlightRecorder) error {
	logger, err := obs.NewLogger(format, os.Stderr, node, fr)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	return nil
}
