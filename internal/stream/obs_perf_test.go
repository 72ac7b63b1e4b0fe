package stream

import (
	"os"
	"testing"
	"time"

	"afs/internal/noise"
)

// TestPerfSmokeObsOverhead is the CI perf-smoke gate for the always-on
// decoder instrumentation: at the paper's design point (d=11, p=1e-3) a
// single stream.Decoder with metrics enabled must sustain at least 0.95x
// the rounds/s of the same decoder with metrics disabled, for both the
// plain and the robust (deadline + backpressure) configuration, and an
// instrumented push must not allocate.
//
// The overhead budget is 2%; the 0.95 floor leaves headroom for CI jitter
// while still catching an instrumentation point that lands on the hot
// path. Each pass builds two instrumented and two uninstrumented decoders
// in swapped creation order: an A/A control shows the second-created
// decoder of a pair runs ~1% faster (allocation locality), so each side
// takes each position once and the bias cancels in the per-side sums.
// Every decoder pushes the identical round sequence each segment, and the
// order within a segment rotates to cancel machine drift. Enabled by
// AFS_PERF_SMOKE=1.
func TestPerfSmokeObsOverhead(t *testing.T) {
	if os.Getenv("AFS_PERF_SMOKE") == "" {
		t.Skip("set AFS_PERF_SMOKE=1 to run the pinned-floor perf smoke")
	}
	const (
		d          = 11
		p          = 1e-3
		segRounds  = 2000
		segments   = 400
		floorRatio = 0.95
	)
	pool := make([][]int32, 1<<14)
	s := noise.NewRoundSampler(d, p, 4321, 2)
	for i := range pool {
		pool[i] = append([]int32(nil), s.SampleRound()...)
	}
	mk := func(enabled, robust bool) *Decoder {
		SetObsEnabled(enabled)
		defer SetObsEnabled(true) // never leave the process uninstrumented
		dec, err := New(d, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if robust {
			if err := dec.SetRobust(Robust{DeadlineNS: 350, QueueCap: 16}); err != nil {
				t.Fatal(err)
			}
		}
		dec.SetSink(func(Correction) {})
		return dec
	}
	for _, robust := range []bool{false, true} {
		on1, off1 := mk(true, robust), mk(false, robust)
		off2, on2 := mk(false, robust), mk(true, robust)
		decs := []*Decoder{on1, off1, off2, on2}
		onDec := []bool{true, false, false, true}
		for i := 0; i < 4*d; i++ { // steady state
			for _, dec := range decs {
				dec.PushLayer(pool[i%len(pool)])
			}
		}
		var onSecs, offSecs float64
		for seg := 0; seg < segments; seg++ {
			off := seg * segRounds
			for k := range decs {
				j := (seg + k) % len(decs)
				start := time.Now()
				for i := 0; i < segRounds; i++ {
					decs[j].PushLayer(pool[(off+i)%len(pool)])
				}
				if secs := time.Since(start).Seconds(); onDec[j] {
					onSecs += secs
				} else {
					offSecs += secs
				}
			}
		}
		ratio := offSecs / onSecs // on/off rounds/s: both sides push the same rounds
		allocs := testing.AllocsPerRun(500, func() { on1.PushLayer(pool[0]) })
		rounds := float64(2 * segRounds * segments)
		t.Logf("robust=%v: obs on %.0f rounds/s, off %.0f rounds/s, on/off %.4f (overhead %.2f%%, budget 2%%), %.0f allocs/push",
			robust, rounds/onSecs, rounds/offSecs, ratio, 100*(1-ratio), allocs)
		if ratio < floorRatio {
			t.Fatalf("robust=%v: instrumented decoder at %.3fx of uninstrumented, below pinned floor %.2fx", robust, ratio, floorRatio)
		}
		if allocs != 0 {
			t.Fatalf("robust=%v: instrumented push allocates %.1f times", robust, allocs)
		}
	}
}
