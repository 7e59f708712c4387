package replay_test

import (
	"testing"

	"res/internal/replay"
	"res/internal/vm"
)

// BenchmarkReplayRun replays one synthesized suffix against its dump:
// the VM's copy of the pre-state, the forced schedule and the end-state
// comparison with the dump, which every candidate suffix pays once.
func BenchmarkReplayRun(b *testing.B) {
	p, d, syn := synthesize(b, loopCrashSrc, vm.Config{}, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := replay.Run(p, syn, d, replay.Config{})
		if err != nil || !rr.Matches {
			b.Fatalf("replay: err=%v matches=%v", err, rr != nil && rr.Matches)
		}
	}
}
