// Package trace defines execution suffixes and schedules: the shared
// currency between RES, which synthesizes them from a coredump, the
// checkpoint recorder, which logs the schedule a production run takes,
// and the concrete VM, which follows them (vm.VM.Follow) whenever a
// forward replay forces a schedule back onto it.
package trace

import (
	"fmt"
	"strings"
)

// Step is one scheduled basic-block execution: thread Tid ran block Block.
type Step struct {
	Tid   int
	Block int
}

func (s Step) String() string { return fmt.Sprintf("t%d:b%d", s.Tid, s.Block) }

// InputRec records one value consumed from an input channel.
type InputRec struct {
	Tid     int
	Channel int64
	Value   int64
}

// Suffix is RES's synthesized execution suffix: a schedule whose first
// step begins from the inferred pre-image, together with the inputs each
// step consumes and where in the final block execution stops (the failure
// point).
type Suffix struct {
	// Steps is the schedule, oldest first. The last step is the partial
	// block of the failing thread, executed up to and including EndPC.
	Steps []Step
	// EndPC is the pc at which execution of the last step's block stops
	// (the faulting instruction).
	EndPC int
	// Inputs are the external input values consumed during the suffix,
	// in consumption order.
	Inputs []InputRec
	// StartPCs maps each thread id to its program counter at the start
	// of the suffix.
	StartPCs map[int]int
}

// Clone returns a deep copy.
func (s *Suffix) Clone() *Suffix {
	ns := &Suffix{
		Steps:    append([]Step(nil), s.Steps...),
		EndPC:    s.EndPC,
		Inputs:   append([]InputRec(nil), s.Inputs...),
		StartPCs: make(map[int]int, len(s.StartPCs)),
	}
	for k, v := range s.StartPCs {
		ns.StartPCs[k] = v
	}
	return ns
}

// Len returns the suffix length in blocks.
func (s *Suffix) Len() int { return len(s.Steps) }

func (s *Suffix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "suffix[%d blocks, end pc %d]:", len(s.Steps), s.EndPC)
	for _, st := range s.Steps {
		b.WriteByte(' ')
		b.WriteString(st.String())
	}
	return b.String()
}
