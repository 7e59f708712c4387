package checkpoint_test

import (
	"testing"

	"res/internal/checkpoint"
	"res/internal/workload"
)

var (
	ringSink  *checkpoint.Ring
	bytesSink []byte
)

// benchRing records a 30k-block DistanceChain run at interval 152 with a
// cap that never thins: 198 checkpoints, the size of the long-exec
// workload's largest rings.
func benchRing(b *testing.B) *checkpoint.Ring {
	b.Helper()
	_, ring, _, err := workload.DistanceChain(30000).FindFailureCheckpointed(1, checkpoint.Config{Every: 152, Cap: 30000/152 + 2})
	if err != nil {
		b.Fatal(err)
	}
	if n := len(ring.Checkpoints); n != 198 {
		b.Fatalf("ring holds %d checkpoints, want 198", n)
	}
	return ring
}

func BenchmarkRingDecode(b *testing.B) {
	raw := benchRing(b).Encode()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := checkpoint.Decode(raw)
		if err != nil {
			b.Fatal(err)
		}
		ringSink = r
	}
}

func BenchmarkRingEncode(b *testing.B) {
	ring := benchRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytesSink = ring.Encode()
	}
	b.SetBytes(int64(len(bytesSink)))
}
