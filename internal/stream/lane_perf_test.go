package stream

import (
	"os"
	"testing"
	"time"

	"afs/internal/noise"
)

// TestPerfSmokeLaneEngine is the CI perf-smoke gate for cross-stream lane
// batching: at the paper's design point (d=11, p=1e-3) with 256 streams the
// lane-batched engine must sustain at least 0.9x the rounds/s of a scalar
// engine measured in the same run on the identical pregenerated feed.
//
// The floor is a no-regression gate, not a speedup claim. An interleaved
// same-run measurement at this shape (24 alternating pairs, one PushRound
// per round) puts lane/scalar at a median 1.31x, quartiles 1.23-1.41x
// (EXPERIMENTS.md), but this single best-of-4 comparison reads anywhere
// from ~0.96x to ~1.2x run to run. What the gate protects is the invariant
// that turning LaneBatch on never costs throughput while the determinism
// suites hold corrections bit-identical. The same-run baseline cancels
// host speed, and 0.9x leaves headroom for CI jitter. Enabled by
// AFS_PERF_SMOKE=1.
func TestPerfSmokeLaneEngine(t *testing.T) {
	if os.Getenv("AFS_PERF_SMOKE") == "" {
		t.Skip("set AFS_PERF_SMOKE=1 to run the pinned-floor perf smoke")
	}
	const (
		streams      = 256
		d            = 11
		p            = 1e-3
		segRounds    = 512 // rounds per timed segment
		reps         = 4
		poolRounds   = 1024
		floorSpeedup = 0.9
	)
	// Pregenerate the feed so the sampler is out of both timed loops and the
	// two engines see byte-identical rounds.
	pool := make([][][]int32, streams)
	for i := range pool {
		s := noise.NewRoundSampler(d, p, 4242, uint64(i)+1)
		pool[i] = make([][]int32, poolRounds)
		for r := range pool[i] {
			pool[i][r] = append([]int32(nil), s.SampleRound()...)
		}
	}
	run := func(lane bool) float64 {
		eng, err := NewEngine(EngineConfig{
			Streams: streams, Distance: d, LaneBatch: lane,
			Sink: func(int, Correction) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		base := 0
		feed := func(i, rr int) []int32 { return pool[i][(base+rr)%poolRounds] }
		if err := eng.RunRounds(4*d, feed); err != nil { // warm scratch
			t.Fatal(err)
		}
		base += 4 * d
		best := 0.0
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			if err := eng.RunRounds(segRounds, feed); err != nil {
				t.Fatal(err)
			}
			if rps := float64(streams*segRounds) / time.Since(start).Seconds(); rps > best {
				best = rps
			}
			base += segRounds
		}
		return best
	}
	scalar := run(false)
	lane := run(true)
	speedup := lane / scalar
	t.Logf("d=%d p=%g L=%d: scalar %.0f rounds/s, lane %.0f rounds/s = %.2fx",
		d, p, streams, scalar, lane, speedup)
	if speedup < floorSpeedup {
		t.Fatalf("lane-batched engine %.3fx of same-run scalar, below pinned floor %.2fx", speedup, floorSpeedup)
	}
}
