// Tests for the partial-residual peel wiring: failure-bit identity of the
// peeled trials against an unpeeled decode, and tally coherence through
// the engine. The peel's soundness certificate itself is tested in
// internal/core (residual_test.go); these tests pin the kernels' use of it.
package montecarlo

import (
	"testing"
)

// runLoggedPeel runs n trials through cfg's kernel exactly like runLogged
// (or runLoggedBP under cfg.BitPlane) and also returns the peel tallies
// summed over the chunks.
func runLoggedPeel(cfg AccuracyConfig, n, chunk uint64) ([]bool, chunkTally) {
	var sum chunkTally
	add := func(ct chunkTally) {
		sum.peeled += ct.peeled
		sum.peelResolved += ct.peelResolved
		sum.residual += ct.residual
	}
	if cfg.BitPlane {
		k := newBPKernel(cfg, cfg.graph())
		k.failLog = make([]bool, 0, n)
		for c := uint64(0); c*chunk < n; c++ {
			k.reseed(cfg.Seed, c)
			add(k.run(min(chunk, n-c*chunk)))
		}
		return k.failLog, sum
	}
	k := newKernel(cfg, cfg.graph())
	k.failLog = make([]bool, 0, n)
	for c := uint64(0); c*chunk < n; c++ {
		k.reseed(cfg.Seed, c)
		add(k.run(min(chunk, n-c*chunk)))
	}
	return k.failLog, sum
}

// Peeling must not change any trial's logical outcome — it only moves work
// from the full decoder to closed forms. Both kernels, at heavy-tail points
// where the peel fires, trial for trial against the same trials decoded
// unpeeled by the full decoder. The compared run's peel tallies must show
// both peel-resolved and residual-decoded trials, so the identity covers
// the peel's outcomes and not only the closed-form classes.
// (TestTriagedBitIdenticalToFullPath sweeps the whole tier-1 grid.)
func TestPeelBitIdenticalToUnpeeled(t *testing.T) {
	const trials, chunk = 4096, 1024
	for _, tc := range []struct {
		d int
		p float64
	}{{5, 0.01}, {7, 0.005}, {9, 0.003}} {
		for _, bitPlane := range []bool{false, true} {
			cfg := AccuracyConfig{
				Distance: tc.d, P: tc.p, Seed: 42, New: sparseUFFactory, BitPlane: bitPlane,
			}
			peeled, tally := runLoggedPeel(cfg, trials, chunk)
			if tally.peeled == 0 || tally.peelResolved == 0 || tally.residual == 0 {
				t.Fatalf("d=%d p=%g bp=%v: peel did not fire: %d components, %d resolved, %d residual",
					tc.d, tc.p, bitPlane, tally.peeled, tally.peelResolved, tally.residual)
			}
			cfg.DisableTriage = true
			plain, _ := runLoggedPeel(cfg, trials, chunk)
			if len(peeled) != trials || len(plain) != trials {
				t.Fatalf("d=%d p=%g bp=%v: logged %d/%d of %d trials",
					tc.d, tc.p, bitPlane, len(peeled), len(plain), trials)
			}
			for i := range peeled {
				if peeled[i] != plain[i] {
					t.Fatalf("d=%d p=%g bp=%v: trial %d: peeled=%v unpeeled=%v",
						tc.d, tc.p, bitPlane, i, peeled[i], plain[i])
				}
			}
		}
	}
}

// The peel tallies must cohere with the triage-class partition: resolved
// trials are a subset of TriageMulti, residual decodes a subset of
// FullDecodes, the defect histogram partitions the residual decodes, and
// every peel outcome accounts for at least one peeled component. Run at an
// operating point with a real heavy tail so the tallies are exercised, for
// both kernels.
func TestPeelTalliesCoherent(t *testing.T) {
	for _, bitPlane := range []bool{false, true} {
		res := RunAccuracy(AccuracyConfig{
			Distance: 7, P: 0.01, Trials: 40000, Seed: 5, Workers: 2, New: sparseUFFactory,
			BitPlane: bitPlane,
		})
		if sum := res.TriageW0 + res.TriageW1 + res.TriageW2 + res.TriageMulti + res.FullDecodes; sum != res.Trials {
			t.Fatalf("bp=%v: triage classes sum to %d, trials %d", bitPlane, sum, res.Trials)
		}
		if res.PeeledComponents == 0 || res.PeelResolved == 0 || res.ResidualDecodes == 0 {
			t.Fatalf("bp=%v: peel never fired at d=7 p=0.01: %+v", bitPlane, res)
		}
		if res.PeelResolved > res.TriageMulti {
			t.Fatalf("bp=%v: peel-resolved %d exceeds TriageMulti %d", bitPlane, res.PeelResolved, res.TriageMulti)
		}
		if res.ResidualDecodes > res.FullDecodes {
			t.Fatalf("bp=%v: residual decodes %d exceed FullDecodes %d", bitPlane, res.ResidualDecodes, res.FullDecodes)
		}
		var hist uint64
		for _, n := range res.ResidualDefects {
			hist += n
		}
		if hist != res.ResidualDecodes {
			t.Fatalf("bp=%v: residual histogram sums to %d, residual decodes %d", bitPlane, hist, res.ResidualDecodes)
		}
		// Every resolved trial and every residual decode peeled >= 1
		// component.
		if res.PeeledComponents < res.PeelResolved+res.ResidualDecodes {
			t.Fatalf("bp=%v: %d components cannot cover %d resolved + %d residual trials",
				bitPlane, res.PeeledComponents, res.PeelResolved, res.ResidualDecodes)
		}
		resolved, residual := res.PeelFractions()
		if resolved <= 0 || residual <= 0 || resolved+residual > 1 {
			t.Fatalf("bp=%v: implausible peel fractions resolved=%g residual=%g", bitPlane, resolved, residual)
		}
	}
}
