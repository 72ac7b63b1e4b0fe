package stream

import (
	"os"
	"testing"
	"time"

	"afs/internal/faults"
	"afs/internal/noise"
)

// TestABProbe is a diagnostic A/B measurement of the hardened push path's
// overhead (chaos channel + deadline accounting vs a plain decoder on
// identical rounds), interleaved in sub-millisecond segments so machine
// noise cancels in the ratio. It decodes ~40M rounds and asserts nothing —
// run it on demand with AFS_AB_PROBE=1 when investigating a regression.
// The gated same-run A/B of the decoder's instrumentation cost is
// TestPerfSmokeObsOverhead.
func TestABProbe(t *testing.T) {
	if os.Getenv("AFS_AB_PROBE") == "" {
		t.Skip("measurement probe; set AFS_AB_PROBE=1 to run (~10s, no assertions)")
	}
	const d = 11
	s := noise.NewRoundSampler(d, 1e-3, 1234, 1)
	pool := make([][]int32, 1<<16)
	for i := range pool {
		pool[i] = append([]int32(nil), s.SampleRound()...)
	}
	const segRounds = 2000
	const segments = 10000 // 10M rounds per side

	run := func(name string, robust bool) {
		a, _ := New(d, d, 0)
		if robust {
			if err := a.SetRobust(Robust{DeadlineNS: 350, QueueCap: 16}); err != nil {
				t.Fatal(err)
			}
		}
		a.SetSink(func(Correction) {})
		ch := faults.NewChannel(d*(d-1), faults.Config{Seed: 5})
		b, _ := New(d, d, 0)
		b.SetSink(func(Correction) {})
		for i := 0; i < 4*d; i++ {
			a.PushLayer(pool[i%len(pool)])
			b.PushLayer(pool[i%len(pool)])
		}
		var aSecs, bSecs float64
		for seg := 0; seg < segments; seg++ {
			off := seg * segRounds
			if seg%2 == 0 {
				t0 := time.Now()
				for i := 0; i < segRounds; i++ {
					delivered, erased, pen := ch.Transfer(pool[(off+i)%len(pool)])
					a.AddPenaltyNS(pen)
					if erased {
						a.PushErased()
						continue
					}
					a.PushLayer(delivered)
				}
				aSecs += time.Since(t0).Seconds()
			} else {
				t0 := time.Now()
				for i := 0; i < segRounds; i++ {
					b.PushLayer(pool[(off+i)%len(pool)])
				}
				bSecs += time.Since(t0).Seconds()
			}
		}
		n := float64(segRounds * segments / 2)
		t.Logf("%-24s A %.0f r/s  B %.0f r/s  ratio %.3f", name, n/aSecs, n/bSecs, aSecs/bSecs)
	}

	run("control: A plain+chan", false)
	run("robust:  A robust+chan", true)
}
