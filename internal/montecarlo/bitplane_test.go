package montecarlo

import (
	"math"
	"os"
	"testing"
	"time"

	"afs/internal/core"
	"afs/internal/noise"
)

// runLoggedBP executes n trials through the bit-plane kernel with the
// per-trial failure log enabled, chunk-seeded exactly like the engine.
func runLoggedBP(cfg AccuracyConfig, n, chunk uint64) []bool {
	k := newBPKernel(cfg, cfg.graph())
	k.failLog = make([]bool, 0, n)
	for c := uint64(0); c*chunk < n; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		k.reseed(cfg.Seed, c)
		k.run(hi - lo)
	}
	return k.failLog
}

// The bit-plane analogue of TestTriagedBitIdenticalToFullPath: at every
// identityPoints (d, p), the lane fast paths (W0/W1/Paired plane
// algebra, captured-pair W2, gathered scalar triage) must produce
// bit-identical logical outcomes, trial for trial, to routing every lane
// through the full decoder on the same sampled planes.
func TestBitPlaneTriagedBitIdenticalToFullPath(t *testing.T) {
	const trials, chunk = 4096, 1024
	for _, pt := range identityPoints {
		d, p := pt.d, pt.p
		for name, factory := range map[string]Factory{
			"uf":        ufFactory,
			"uf-sparse": sparseUFFactory,
		} {
			cfg := AccuracyConfig{Distance: d, P: p, Seed: 42, New: factory, BitPlane: true}
			triaged := runLoggedBP(cfg, trials, chunk)
			cfg.DisableTriage = true
			full := runLoggedBP(cfg, trials, chunk)
			if len(triaged) != trials || len(full) != trials {
				t.Fatalf("d=%d p=%g %s: logged %d/%d of %d trials",
					d, p, name, len(triaged), len(full), trials)
			}
			for i := range triaged {
				if triaged[i] != full[i] {
					t.Fatalf("d=%d p=%g %s: trial %d: triaged=%v full=%v",
						d, p, name, i, triaged[i], full[i])
				}
			}
		}
	}
	// MWPM cross-check at small d (its decode is much slower).
	for _, d := range []int{3, 5} {
		cfg := AccuracyConfig{Distance: d, P: 0.01, Seed: 23, New: mwpmFactory, BitPlane: true}
		triaged := runLoggedBP(cfg, 2048, 512)
		cfg.DisableTriage = true
		full := runLoggedBP(cfg, 2048, 512)
		for i := range triaged {
			if triaged[i] != full[i] {
				t.Fatalf("d=%d mwpm: trial %d: triaged=%v full=%v", d, i, triaged[i], full[i])
			}
		}
	}
}

// The bit-plane kernel must reproduce, trial for trial, the straightforward
// per-lane scalar resolution of the SAME plane-sampled trials: extract each
// lane's sorted defect list, run it through scalar triage, punt to the full
// decoder. This pins every piece of the lane machinery — weight masks,
// north parity, captured W2 pairs, the Paired rule, and the gather scan —
// against the code path the repo already trusts. The reference deliberately
// decodes punted lanes whole (no PeelResidual), so agreement here also
// differentially validates the kernel's partial-residual peel against
// undecomposed decodes on exactly the syndrome population the kernel sees.
func TestBitPlaneKernelMatchesPerLaneReference(t *testing.T) {
	for _, tc := range []struct {
		d int
		p float64
	}{{3, 0.01}, {5, 0.003}, {7, 0.001}, {5, 0.02}, {9, 0.005}} {
		const trials, chunk = 3072, 1024
		cfg := AccuracyConfig{Distance: tc.d, P: tc.p, Seed: 7, New: ufFactory, BitPlane: true}
		got := runLoggedBP(cfg, trials, chunk)

		g := cfg.graph()
		dec := ufFactory(g)
		tri := core.NewTriage(g)
		var pg noise.PlaneGroup
		var buf []int32
		var want []bool
		for c := uint64(0); c*chunk < trials; c++ {
			s := noise.NewPlaneSampler(g, tc.p, cfg.Seed, c, g.NorthCutQubits())
			cutEdge := s.CutEdges()
			remaining := uint64(chunk)
			if c*chunk+remaining > trials {
				remaining = trials - c*chunk
			}
			for remaining > 0 {
				kk := 64
				if remaining < 64 {
					kk = int(remaining)
				}
				s.SampleGroup(&pg, kk)
				for lane := 0; lane < kk; lane++ {
					buf = pg.AppendLaneDefects(lane, buf[:0])
					par := pg.CutParity&(1<<uint(lane)) != 0
					if _, p, ok := tri.ClassifySyndrome(buf); ok {
						want = append(want, par != p)
					} else {
						for _, e := range dec.Decode(buf) {
							if cutEdge[e] {
								par = !par
							}
						}
						want = append(want, par)
					}
				}
				remaining -= uint64(kk)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("d=%d p=%g: logged %d trials, reference %d", tc.d, tc.p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%d p=%g: trial %d: kernel=%v reference=%v", tc.d, tc.p, i, got[i], want[i])
			}
		}
	}
}

// Engine determinism: bit-plane results must be identical across worker
// counts, exactly like the scalar kernel's contract.
func TestBitPlaneEngineWorkerInvariance(t *testing.T) {
	base := AccuracyConfig{
		Distance: 5, P: 0.005, Trials: 30000, Seed: 77, New: sparseUFFactory, BitPlane: true,
	}
	base.Workers = 1
	one := RunAccuracy(base)
	base.Workers = 4
	four := RunAccuracy(base)
	if one.Failures != four.Failures || one.Trials != four.Trials {
		t.Fatalf("worker count changed bit-plane results: 1w=%d/%d 4w=%d/%d",
			one.Failures, one.Trials, four.Failures, four.Trials)
	}
}

// Tallies: the triage classes must partition the trials, the bit-plane
// fast/gathered lane split must partition them too, and both sets of
// fractions must sum to 1 (the satellite-1 invariant extended to the
// bit-plane counters).
func TestBitPlaneTalliesPartitionTrials(t *testing.T) {
	res := RunAccuracy(AccuracyConfig{
		Distance: 5, P: 0.003, Trials: 20000, Seed: 5, Workers: 2, New: sparseUFFactory,
		BitPlane: true,
	})
	if sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes; sum != res.Trials {
		t.Fatalf("triage classes sum to %d, trials %d", sum, res.Trials)
	}
	if sum := res.BitPlaneFastLanes + res.BitPlaneGatheredLanes; sum != res.Trials {
		t.Fatalf("bit-plane lanes sum to %d, trials %d", sum, res.Trials)
	}
	if res.BitPlaneFastLanes == 0 || res.BitPlaneGatheredLanes == 0 {
		t.Fatalf("expected both lane tiers to fire at d=5 p=0.003: %+v", res)
	}
	w0, w1, w2, multi, full := res.TriageFractions()
	if s := w0 + w1 + w2 + multi + full; math.Abs(s-1) > 1e-9 {
		t.Fatalf("triage fractions sum to %g, want 1", s)
	}
	fast, gathered := res.BitPlaneFractions()
	if s := fast + gathered; math.Abs(s-1) > 1e-9 {
		t.Fatalf("bit-plane fractions sum to %g, want 1", s)
	}
}

// Seeded distribution equivalence at the engine level: the bit-plane and
// scalar kernels sample from the same per-site Bernoulli distribution, so
// their measured logical error rates over a large fixed-seed run must
// agree within tight Monte-Carlo tolerance (~6 sigma; both runs are
// deterministic, so this never flakes).
func TestBitPlaneLogicalRateMatchesScalarKernel(t *testing.T) {
	base := AccuracyConfig{
		Distance: 3, P: 0.01, Trials: 300000, Seed: 31, Workers: 4, New: sparseUFFactory,
	}
	scalar := RunAccuracy(base)
	base.BitPlane = true
	base.Seed = 77 // independent stream on purpose: this is a distribution check
	plane := RunAccuracy(base)
	rs, rp := scalar.LogicalErrorRate, plane.LogicalErrorRate
	// Pooled ~6-sigma bound on the difference of two binomial rates.
	n := float64(base.Trials)
	pool := (rs + rp) / 2
	sigma := math.Sqrt(2 * pool * (1 - pool) / n)
	if math.Abs(rs-rp) > 6*sigma {
		t.Fatalf("logical error rates diverge: scalar %.5g bit-plane %.5g (6σ=%.5g)",
			rs, rp, 6*sigma)
	}
	if math.Abs(scalar.MeanDefects-plane.MeanDefects)/scalar.MeanDefects > 0.02 {
		t.Fatalf("mean defects diverge: scalar %.4f bit-plane %.4f",
			scalar.MeanDefects, plane.MeanDefects)
	}
}

// Steady-state bit-plane decoding must not allocate. The measured pass
// replays the warmed chunk (per-lane gather lists grow to the high-water
// mark of the trials they have seen; replaying makes "steady state"
// deterministic rather than hostage to extreme-value record growth).
func TestBitPlaneKernelZeroAllocSteadyState(t *testing.T) {
	for _, p := range []float64{0.001, 0.02} {
		cfg := AccuracyConfig{Distance: 11, P: p, Seed: 9, New: sparseUFFactory, BitPlane: true}
		k := newBPKernel(cfg, cfg.graph())
		k.reseed(cfg.Seed, 0)
		k.run(4 * BatchTrials) // reach the high-water mark
		avg := testing.AllocsPerRun(20, func() {
			k.reseed(cfg.Seed, 0)
			k.run(BatchTrials)
		})
		if avg != 0 {
			t.Fatalf("p=%g: bit-plane kernel allocates %.1f times per batch in steady state", p, avg)
		}
	}
}

// TestPerfSmokeBitPlaneKernel pins the bit-plane kernel's floors at the
// paper's design point (d=11, p=1e-3) — the tentpole's speedup claim lives
// at this point, so a regression that silently falls back to scalar speed
// trips here. Four floors: raw throughput (set ~2x under dev-machine
// numbers, so only real regressions — not CI jitter — fail), the
// machine-independent fast-lane fraction (dev machines measure ~0.96; a
// broken Matched/Chain4/SinglesOK/duo class drops it far below the 0.90
// floor), the machine-independent residual-peel fraction — the share of
// full-decoder visits that peeling resolved or shrank (dev machines
// measure ~0.94; a broken PeelResidual certificate or kernel wiring drops
// it far below 0.60) — and the same-run speedup over the batch kernel.
//
// The speedup floor records why both shot kernels exist. The facade runs
// the batch kernel because its random stream is the one the repository
// benchmark's replica reproduces draw for draw; bit-plane is the opt-in
// fast kernel (AccuracyConfig.BitPlane), and it only earns its code while
// it stays well ahead. The two kernels run interleaved segments on the
// same chunk seeds, alternating which goes first, so machine drift
// cancels in the ratio; dev machines measure ~1.75x against the 1.25x
// floor. Enabled by AFS_PERF_SMOKE=1.
func TestPerfSmokeBitPlaneKernel(t *testing.T) {
	if os.Getenv("AFS_PERF_SMOKE") == "" {
		t.Skip("set AFS_PERF_SMOKE=1 to run the pinned-floor perf smoke")
	}
	const floorTPS = 1_500_000.0
	const floorFastFrac = 0.90
	const floorPeelFrac = 0.60
	const floorSpeedup = 1.25
	cfg := AccuracyConfig{Distance: 11, P: 1e-3, Seed: 1, New: sparseUFFactory, BitPlane: true}
	k := newBPKernel(cfg, cfg.graph())
	batch := newKernel(cfg, cfg.graph())
	for _, r := range []runner{k, batch} { // warm
		r.reseed(cfg.Seed, 0)
		r.run(1 << 16)
	}
	const segments, per = 8, 1 << 18
	const trials = segments * per
	var tally chunkTally
	var secs [2]float64 // bit-plane, batch
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 2; i++ {
			side := (seg + i) % 2
			r := []runner{k, batch}[side]
			r.reseed(cfg.Seed, uint64(seg+1))
			start := time.Now()
			got := r.run(per)
			secs[side] += time.Since(start).Seconds()
			if side == 0 {
				tally.bpFast += got.bpFast
				tally.bpGathered += got.bpGathered
				tally.residual += got.residual
				tally.peelResolved += got.peelResolved
				tally.full += got.full
			}
		}
	}
	tps := float64(trials) / secs[0]
	speedup := secs[1] / secs[0]
	fastFrac := float64(tally.bpFast) / float64(trials)
	peelFrac := float64(tally.residual+tally.peelResolved) / float64(tally.full+tally.peelResolved)
	t.Logf("bit-plane kernel: %.2fM trials/s, batch kernel %.2fM trials/s same run = %.2fx (fast-lane fraction %.4f, peel fraction %.4f)",
		tps/1e6, float64(trials)/secs[1]/1e6, speedup, fastFrac, peelFrac)
	if tally.bpFast+tally.bpGathered != trials {
		t.Fatalf("lane tallies %d+%d do not partition %d trials", tally.bpFast, tally.bpGathered, trials)
	}
	if tps < floorTPS {
		t.Fatalf("bit-plane throughput %.0f trials/s below pinned floor %.0f", tps, floorTPS)
	}
	if fastFrac < floorFastFrac {
		t.Fatalf("fast-lane fraction %.4f below pinned floor %.2f", fastFrac, floorFastFrac)
	}
	if peelFrac < floorPeelFrac {
		t.Fatalf("residual-peel fraction %.4f below pinned floor %.2f", peelFrac, floorPeelFrac)
	}
	if speedup < floorSpeedup {
		t.Fatalf("bit-plane kernel %.3fx of the same-run batch kernel, below pinned floor %.2fx", speedup, floorSpeedup)
	}
}

// BenchmarkBitPlaneKernel measures the bit-plane pipeline at the paper's
// design point (d=11, p=0.001); ns/op is ns per trial. BENCH_6.json
// records this against the scalar batch kernel's 515 ns/trial.
func BenchmarkBitPlaneKernel(b *testing.B) {
	benchBPKernel(b, false)
}

// BenchmarkBitPlaneKernelUntriaged isolates the lane fast paths'
// contribution.
func BenchmarkBitPlaneKernelUntriaged(b *testing.B) {
	benchBPKernel(b, true)
}

func benchBPKernel(b *testing.B, disableTriage bool) {
	cfg := AccuracyConfig{
		Distance: 11, P: 0.001, Seed: 2, New: sparseUFFactory,
		BitPlane: true, DisableTriage: disableTriage,
	}
	k := newBPKernel(cfg, cfg.graph())
	k.reseed(cfg.Seed, 0)
	k.run(4 * BatchTrials)
	b.ReportAllocs()
	b.ResetTimer()
	k.run(uint64(b.N))
}
