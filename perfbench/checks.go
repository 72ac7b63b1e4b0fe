package main

import (
	"fmt"
	"math"
	"sort"

	"afs/internal/lattice"
	"afs/internal/stream"
)

// triageTally is the Monte-Carlo engine's trial partition, read from its
// obs counters around the measured calls.
type triageTally struct {
	trials, w0, w1, w2, multi, full uint64
}

// checkTriagePartition requires every executed trial to land in exactly one
// triage class, and the engine's trial counter to agree with the trials the
// facade reported.
func checkTriagePartition(t triageTally, executed uint64) error {
	sum := t.w0 + t.w1 + t.w2 + t.multi + t.full
	if t.trials != executed {
		return fmt.Errorf("engine counted %d trials, facade reported %d", t.trials, executed)
	}
	if sum != executed {
		return fmt.Errorf("triage classes sum to %d (w0 %d, w1 %d, w2 %d, multi %d, full %d), executed %d",
			sum, t.w0, t.w1, t.w2, t.multi, t.full, executed)
	}
	return nil
}

// expectedDefects is the mean detection-event count per trial under the
// phenomenological model on g: every edge flips independently with
// probability p, and a detector fires when an odd number of its incident
// edges flipped, which happens with probability (1-(1-2p)^deg)/2.
func expectedDefects(g *lattice.Graph, p float64) float64 {
	sum := 0.0
	for v := 0; v < g.V; v++ {
		sum += (1 - math.Pow(1-2*p, float64(g.Degree(int32(v))))) / 2
	}
	return sum
}

// checkSyndromeWeight compares the mean syndrome weight of independent
// calls with the model's expectation. The tolerance is five standard errors
// of the grand mean, estimated from the spread of the per-call means, so a
// correct sampler fails it with probability below 1e-6 per run.
func checkSyndromeWeight(callMeans []float64, expected float64) error {
	n := float64(len(callMeans))
	if n < 2 {
		return fmt.Errorf("need at least 2 calls, have %d", len(callMeans))
	}
	mean, ss := 0.0, 0.0
	for _, x := range callMeans {
		mean += x
	}
	mean /= n
	for _, x := range callMeans {
		ss += (x - mean) * (x - mean)
	}
	se := math.Sqrt(ss / (n - 1) / n)
	if diff := math.Abs(mean - expected); diff > 5*se || math.IsNaN(mean) {
		return fmt.Errorf("mean syndrome weight %.5f, model expects %.5f (|diff| %.5f > 5 SE %.5f)", mean, expected, diff, 5*se)
	}
	return nil
}

// referenceRate is a logical error rate measured once with triage disabled
// (reference.json, written by --calibrate).
type referenceRate struct {
	Distance int     `json:"distance"`
	P        float64 `json:"p"`
	Trials   uint64  `json:"trials"`
	Failures uint64  `json:"failures"`
	Seed     uint64  `json:"seed"`
}

// checkRateAgainstReference tests whether failures/trials is consistent
// with the reference rate: the difference of the two proportions must stay
// within four standard errors. A per-run 95% band would fail a correct
// decoder once in twenty runs; four standard errors fail it about once in
// 16000 while still catching any decoder change that moves the rate by a
// few percent.
func checkRateAgainstReference(failures, trials uint64, ref referenceRate) error {
	if trials == 0 || ref.Trials == 0 {
		return fmt.Errorf("no trials (run %d, reference %d)", trials, ref.Trials)
	}
	r := float64(failures) / float64(trials)
	rr := float64(ref.Failures) / float64(ref.Trials)
	se := math.Sqrt(rr*(1-rr)/float64(trials) + rr*(1-rr)/float64(ref.Trials))
	if diff := math.Abs(r - rr); diff > 4*se {
		return fmt.Errorf("logical error rate %.5f (%d/%d), reference %.5f (%d/%d): |diff| %.5f > 4 SE %.5f",
			r, failures, trials, rr, ref.Failures, ref.Trials, diff, 4*se)
	}
	return nil
}

// checkCorrectionsEqual compares two committed-correction lists as
// multisets: stream.Baseline's contract with stream.Decoder is the same
// corrections per window, and the decoder's sparse shortcut may emit a
// window's corrections in another order.
func checkCorrectionsEqual(label string, got, want []stream.Correction) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d corrections, reference has %d", label, len(got), len(want))
	}
	g, w := sortedCorrections(got), sortedCorrections(want)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("%s: sorted correction %d is %+v, reference %+v", label, i, g[i], w[i])
		}
	}
	return nil
}

func sortedCorrections(cs []stream.Correction) []stream.Correction {
	out := append([]stream.Correction(nil), cs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Qubit != b.Qubit {
			return a.Qubit < b.Qubit
		}
		return a.Ancilla < b.Ancilla
	})
	return out
}

// corrDigest folds a stream's correction sequence into an FNV-1a hash and a
// count, so two long sequences can be compared without keeping them.
type corrDigest struct {
	h uint64
	n int64
}

func (d *corrDigest) add(c stream.Correction) {
	if d.n == 0 && d.h == 0 {
		d.h = 14695981039346656037
	}
	for _, x := range [4]uint64{uint64(c.Kind), uint64(uint32(c.Qubit)), uint64(uint32(c.Ancilla)), uint64(c.Round)} {
		for i := 0; i < 8; i++ {
			d.h ^= x & 0xff
			d.h *= 1099511628211
			x >>= 8
		}
	}
	d.n++
}

// checkDigestsEqual requires every stream's digest to match the reference.
func checkDigestsEqual(got, want []corrDigest) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d streams, reference has %d", len(got), len(want))
	}
	bad, first := 0, -1
	for i := range got {
		if got[i] != want[i] {
			bad++
			if first < 0 {
				first = i
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d streams differ from the in-process reference (first: stream %d, %d vs %d corrections)",
			bad, len(got), first, got[first].n, want[first].n)
	}
	return nil
}
