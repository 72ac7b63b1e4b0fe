package montecarlo

import (
	"math"
	"os"
	"testing"
	"time"

	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
)

func sparseUFFactory(g *lattice.Graph) Decoder {
	return core.NewDecoder(g, core.Options{LeanStats: true, SparseShortcut: true})
}

// runLogged executes n trials through a kernel with the per-trial failure
// log enabled, chunk-seeded exactly like the engine.
func runLogged(cfg AccuracyConfig, n, chunk uint64) []bool {
	k := newKernel(cfg, cfg.graph())
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

// identityPoints is the (d, p) grid of the triaged-vs-full identity
// suites: the tier-1 sweep plus (7, 0.005), a heavy-tail point where the
// residual peel certifies and shrinks many syndromes.
var identityPoints = []struct {
	d int
	p float64
}{
	{3, 0.001}, {3, 0.003}, {3, 0.01},
	{5, 0.001}, {5, 0.003}, {5, 0.01},
	{7, 0.001}, {7, 0.003}, {7, 0.01}, {7, 0.005},
	{9, 0.001}, {9, 0.003}, {9, 0.01},
	{11, 0.001}, {11, 0.003}, {11, 0.01},
}

// The triage layer's equivalence guarantee: at every identityPoints (d, p),
// the triaged pipeline — closed forms, residual peel, and the decoder on
// whatever residual is left — produces bit-identical logical outcomes,
// trial for trial, to the untriaged full-decoder path under the same
// seeds, for the plain Union-Find decoder, the sparse-shortcut variant,
// and (at the smallest distances) the MWPM baseline.
func TestTriagedBitIdenticalToFullPath(t *testing.T) {
	const trials, chunk = 4096, 1024
	for _, pt := range identityPoints {
		d, p := pt.d, pt.p
		for name, factory := range map[string]Factory{
			"uf":        ufFactory,
			"uf-sparse": sparseUFFactory,
		} {
			cfg := AccuracyConfig{Distance: d, P: p, Seed: 42, New: factory}
			triaged := runLogged(cfg, trials, chunk)
			cfg.DisableTriage = true
			full := runLogged(cfg, trials, chunk)
			if len(triaged) != trials || len(full) != trials {
				t.Fatalf("d=%d p=%g %s: logged %d/%d of %d trials", d, p, name, len(triaged), len(full), trials)
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
		cfg := AccuracyConfig{Distance: d, P: 0.01, Seed: 23, New: mwpmFactory}
		triaged := runLogged(cfg, 2048, 512)
		cfg.DisableTriage = true
		full := runLogged(cfg, 2048, 512)
		for i := range triaged {
			if triaged[i] != full[i] {
				t.Fatalf("d=%d mwpm: trial %d: triaged=%v full=%v", d, i, triaged[i], full[i])
			}
		}
	}
}

// The fused kernel's untriaged path must reproduce the legacy scalar
// pipeline (Sampler → Decode → ApplyCorrection → residual cut parity)
// trial for trial: the cut-parity formulation is algebraically identical
// to materializing the residual data mask.
func TestBatchKernelMatchesScalarPath(t *testing.T) {
	for _, tc := range []struct {
		d int
		p float64
	}{{3, 0.01}, {5, 0.003}, {7, 0.001}, {5, 0.02}} {
		const trials, chunk = 3072, 1024
		cfg := AccuracyConfig{Distance: tc.d, P: tc.p, Seed: 7, New: ufFactory, DisableTriage: true}
		got := runLogged(cfg, trials, chunk)

		g := cfg.graph()
		cut := g.NorthCutQubits()
		dec := ufFactory(g)
		var trial noise.Trial
		var residual noise.Bitset
		var want []bool
		for c := uint64(0); c*chunk < trials; c++ {
			s := noise.NewSampler(g, tc.p, cfg.Seed, c)
			for i := uint64(0); i < chunk && c*chunk+i < trials; i++ {
				s.Sample(&trial)
				corr := dec.Decode(trial.Defects)
				ApplyCorrection(g, corr, &trial, &residual)
				want = append(want, residual.Parity(cut))
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%d p=%g: trial %d: kernel=%v scalar=%v", tc.d, tc.p, i, got[i], want[i])
			}
		}
	}
}

// Triage-class tallies must partition the trial count, and the engine must
// report them through AccuracyResult.
func TestTriageTalliesPartitionTrials(t *testing.T) {
	res := RunAccuracy(AccuracyConfig{
		Distance: 5, P: 0.003, Trials: 20000, Seed: 5, Workers: 2, New: sparseUFFactory,
	})
	sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes
	if sum != res.Trials {
		t.Fatalf("triage classes sum to %d, trials %d", sum, res.Trials)
	}
	if res.TriageW0 == 0 || res.TriageW1 == 0 || res.TriageW2 == 0 || res.TriageMulti == 0 {
		t.Fatalf("expected every fast class to fire at d=5 p=0.003: %+v", res)
	}
	res = RunAccuracy(AccuracyConfig{
		Distance: 5, P: 0.003, Trials: 20000, Seed: 5, Workers: 2, New: sparseUFFactory,
		DisableTriage: true,
	})
	if res.FullDecodes != res.Trials || res.TriageW0+res.TriageW1+res.TriageW2+res.TriageMulti != 0 {
		t.Fatalf("DisableTriage still triaged: %+v", res)
	}
	if res.PeeledComponents+res.PeelResolved+res.ResidualDecodes != 0 || res.ResidualDefects != [5]uint64{} {
		t.Fatalf("DisableTriage still peeled: %+v", res)
	}

	// Under early stopping Trials < TrialsRequested — the case where a
	// requested-trials denominator would break the fractions. They must
	// still sum to 1±ε because TriageFractions divides by executed trials.
	res = RunAccuracy(AccuracyConfig{
		Distance: 3, P: 0.01, Trials: 1 << 22, Seed: 5, Workers: 2, New: sparseUFFactory,
		StopRelCI: 0.2,
	})
	if !res.EarlyStopped || res.Trials >= res.TrialsRequested {
		t.Fatalf("early stopping did not fire: executed %d of %d", res.Trials, res.TrialsRequested)
	}
	w0, w1, w2, multi, full := res.TriageFractions()
	if sum := w0 + w1 + w2 + multi + full; math.Abs(sum-1) > 1e-12 {
		t.Fatalf("triage fractions sum to %v under early stopping", sum)
	}
}

// TestFractionsPartitionWithFusedPeel audits the fraction denominators on
// the post-fusion pipelines: at a heavy near-threshold point, where both
// kernels route every multi-defect syndrome through PeelResidual, the
// triage classes must still partition the executed trials exactly, the
// fractions must sum to 1, and the peel tallies must stay subsets of the
// classes they refine (PeelResolved of TriageMulti, ResidualDecodes of
// FullDecodes) on the scalar and bit-plane kernels alike.
func TestFractionsPartitionWithFusedPeel(t *testing.T) {
	for _, bitplane := range []bool{false, true} {
		res := RunAccuracy(AccuracyConfig{
			Distance: 7, P: 0.02, Trials: 20000, Seed: 12, Workers: 2, New: sparseUFFactory,
			BitPlane: bitplane,
		})
		if sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes; sum != res.Trials {
			t.Fatalf("bitplane=%v: triage classes sum to %d, trials %d", bitplane, sum, res.Trials)
		}
		w0, w1, w2, multi, full := res.TriageFractions()
		if s := w0 + w1 + w2 + multi + full; math.Abs(s-1) > 1e-12 {
			t.Fatalf("bitplane=%v: triage fractions sum to %g, want 1", bitplane, s)
		}
		if res.PeelResolved == 0 || res.ResidualDecodes == 0 {
			t.Fatalf("bitplane=%v: peel never fired at a heavy point: %+v", bitplane, res)
		}
		if res.PeelResolved > res.TriageMulti {
			t.Fatalf("bitplane=%v: PeelResolved %d exceeds TriageMulti %d — not a refinement",
				bitplane, res.PeelResolved, res.TriageMulti)
		}
		if res.ResidualDecodes > res.FullDecodes {
			t.Fatalf("bitplane=%v: ResidualDecodes %d exceeds FullDecodes %d — not a refinement",
				bitplane, res.ResidualDecodes, res.FullDecodes)
		}
		resolved, residual := res.PeelFractions()
		if resolved > multi || residual > full {
			t.Fatalf("bitplane=%v: peel fractions (%g, %g) exceed their classes (%g, %g)",
				bitplane, resolved, residual, multi, full)
		}
	}
}

// Steady-state batch decoding must not allocate — the 0 allocs/op contract
// extends from the scalar pipeline to the fused kernel.
func TestBatchKernelZeroAllocSteadyState(t *testing.T) {
	for _, p := range []float64{0.001, 0.02} {
		cfg := AccuracyConfig{Distance: 11, P: p, Seed: 9, New: sparseUFFactory}
		k := newKernel(cfg, cfg.graph())
		k.reseed(cfg.Seed, 0)
		k.run(4 * BatchTrials) // reach the high-water mark
		if avg := testing.AllocsPerRun(20, func() { k.run(BatchTrials) }); avg != 0 {
			t.Fatalf("p=%g: batch kernel allocates %.1f times per batch in steady state", p, avg)
		}
	}
}

// TestPerfSmokeWeight0FastPath is the CI perf-smoke gate: at a weight-0
// dominated operating point the fused kernel must sustain a pinned
// throughput floor. The floor is ~10x below observed dev-machine numbers
// so only a real fast-path regression (not CI jitter) trips it. Enabled by
// AFS_PERF_SMOKE=1.
func TestPerfSmokeWeight0FastPath(t *testing.T) {
	if os.Getenv("AFS_PERF_SMOKE") == "" {
		t.Skip("set AFS_PERF_SMOKE=1 to run the pinned-floor perf smoke")
	}
	const floorTPS = 2_000_000.0
	cfg := AccuracyConfig{Distance: 3, P: 1e-4, Seed: 1, New: sparseUFFactory}
	k := newKernel(cfg, cfg.graph())
	k.reseed(cfg.Seed, 0)
	k.run(1 << 16) // warm
	const trials = 1 << 21
	start := time.Now()
	tally := k.run(trials)
	tps := float64(trials) / time.Since(start).Seconds()
	w0Frac := float64(tally.w0) / float64(trials)
	t.Logf("weight-0 fast path: %.2fM trials/s (w0 fraction %.4f)", tps/1e6, w0Frac)
	if w0Frac < 0.95 {
		t.Fatalf("operating point not weight-0 dominated (w0 %.3f); smoke floor meaningless", w0Frac)
	}
	if tps < floorTPS {
		t.Fatalf("weight-0 fast-path throughput %.0f trials/s below pinned floor %.0f", tps, floorTPS)
	}
}

// BenchmarkBatchKernel measures the fused pipeline at the paper's design
// point (d=11, p=0.001); ns/op is ns per trial. BENCH_5.json records this
// alongside the legacy scalar micro benchmark.
func BenchmarkBatchKernel(b *testing.B) {
	benchKernel(b, false)
}

// BenchmarkBatchKernelUntriaged isolates the triage layer's contribution.
func BenchmarkBatchKernelUntriaged(b *testing.B) {
	benchKernel(b, true)
}

func benchKernel(b *testing.B, disableTriage bool) {
	cfg := AccuracyConfig{
		Distance: 11, P: 0.001, Seed: 2, New: sparseUFFactory, DisableTriage: disableTriage,
	}
	k := newKernel(cfg, cfg.graph())
	k.reseed(cfg.Seed, 0)
	k.run(4 * BatchTrials)
	b.ReportAllocs()
	b.ResetTimer()
	k.run(uint64(b.N))
}
