package stream

import (
	"os"
	"testing"
	"time"

	"afs/internal/noise"
)

// TestPerfSmokeLaneEngine is the CI perf-smoke gate for cross-stream lane
// batching: at the paper's design point (d=11, p=1e-3) with 256 streams a
// single-worker engine fed one PushRound per round — which resolves every
// window through its lane batcher — must sustain at least 0.9x the
// rounds/s of 256 per-stream decoders pushed serially, round by round,
// measured in the same run on the identical pregenerated rounds.
//
// The floor is a no-regression gate, not a speedup claim. An interleaved
// same-run measurement at this shape with a two-worker pool (24 alternating
// pairs, one PushRound per round) put lane/scalar at a median 1.31x,
// quartiles 1.23-1.41x (EXPERIMENTS.md); this one-worker, best-of-4
// comparison reads ~1.15-1.3x and wobbles run to run.
// What the gate protects is the invariant that lane batching never costs
// throughput against decoding each stream on its own, while the identity
// suites hold corrections bit-identical. One worker on both sides keeps
// pool parallelism out of the ratio; the same-run baseline cancels host
// speed, and 0.9x leaves headroom for CI jitter. Enabled by
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
	// Pregenerate the rounds, round-major, so the sampler is out of both
	// timed loops and the two sides see byte-identical rounds.
	pool := make([][][]int32, poolRounds)
	for r := range pool {
		pool[r] = make([][]int32, streams)
	}
	for i := 0; i < streams; i++ {
		s := noise.NewRoundSampler(d, p, 4242, uint64(i)+1)
		for r := range pool {
			pool[r][i] = append([]int32(nil), s.SampleRound()...)
		}
	}

	decs := make([]*Decoder, streams)
	for i := range decs {
		dec, err := New(d, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		dec.SetSink(func(Correction) {})
		decs[i] = dec
	}
	eng, err := NewEngine(EngineConfig{
		Streams: streams, Distance: d, Workers: 1,
		Sink: func(int, Correction) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	scalar := func(r int) {
		for i, dec := range decs {
			if err := dec.PushLayer(pool[r%poolRounds][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	lane := func(r int) {
		if err := eng.PushRound(pool[r%poolRounds]); err != nil {
			t.Fatal(err)
		}
	}
	// Both sides walk the same round sequence; segments alternate which
	// side runs first, and each side keeps its best segment.
	var best [2]float64
	base := 0
	for _, push := range []func(int){scalar, lane} { // warm scratch
		for r := 0; r < 4*d; r++ {
			push(base + r)
		}
	}
	base += 4 * d
	for rep := 0; rep < reps; rep++ {
		for k := 0; k < 2; k++ {
			side := (rep + k) % 2
			push := []func(int){scalar, lane}[side]
			start := time.Now()
			for r := 0; r < segRounds; r++ {
				push(base + r)
			}
			if rps := float64(streams*segRounds) / time.Since(start).Seconds(); rps > best[side] {
				best[side] = rps
			}
		}
		base += segRounds
	}

	speedup := best[1] / best[0]
	t.Logf("d=%d p=%g L=%d: per-stream %.0f rounds/s, lane engine %.0f rounds/s = %.2fx",
		d, p, streams, best[0], best[1], speedup)
	if speedup < floorSpeedup {
		t.Fatalf("lane-batched engine %.3fx of same-run per-stream decoding, below pinned floor %.2fx", speedup, floorSpeedup)
	}
}
