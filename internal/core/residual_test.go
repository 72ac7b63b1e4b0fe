// Differential soundness tests for the partial-residual decomposition:
// peeled closed-form parity XOR residual decode parity must equal the
// undecomposed full decode's parity, for every decoder in the repository,
// on exhaustive small placements, randomized fault-shaped and adversarial
// syndromes, and fuzzed inputs.
package core_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"afs/internal/core"
	"afs/internal/lattice"
)

// peelStats tallies how a body of syndromes moved through PeelResidual so
// the tests can require that every outcome class is actually exercised.
type peelStats struct {
	resolved int // everything certified: no decoder work left
	partial  int // some components peeled, residual decoded
	unpeeled int // nothing certified: input returned verbatim
}

// checkPeelResidual verifies the certificate on one syndrome: structural
// invariants of the returned residual, and parity equivalence
// peel ^ decode(residual) == decode(whole) under every decoder.
func checkPeelResidual(t *testing.T, g *lattice.Graph, tri *core.Triage, decs []namedDecoder, defects []int32, st *peelStats) {
	t.Helper()
	parity, res, peeled := tri.PeelResidual(defects)
	// Structural invariants.
	if !isSubsequence(res, defects) {
		t.Fatalf("%v: residual %v is not a subsequence of %v", g, res, defects)
	}
	switch {
	case len(res) == len(defects):
		if parity || peeled != 0 {
			t.Fatalf("%v: unpeeled syndrome %v returned parity=%v peeled=%d", g, defects, parity, peeled)
		}
		st.unpeeled++
	case len(res) == 0:
		if peeled == 0 {
			t.Fatalf("%v: fully resolved %v with peeled=0", g, defects)
		}
		st.resolved++
	default:
		if peeled == 0 {
			t.Fatalf("%v: partial residual %v of %v with peeled=0", g, res, defects)
		}
		st.partial++
	}
	// Parity equivalence vs every decoder. The residual aliases triage
	// scratch, so copy it before the decoders run.
	resCopy := slices.Clone(res)
	for _, dec := range decs {
		full := dec.decode(defects)
		checkSyndrome(t, g, full, defects)
		want := cutParity(g, full)
		got := parity
		if len(resCopy) > 0 {
			rc := dec.decode(resCopy)
			checkSyndrome(t, g, rc, resCopy)
			got = got != cutParity(g, rc)
		}
		if got != want {
			t.Fatalf("%v: %s peel parity %v != full parity %v on %v (residual %v, peeled %d)",
				g, dec.name, got, want, defects, resCopy, peeled)
		}
	}
	// Idempotence: the decomposition is a pure function of the syndrome
	// (scratch reuse must not leak state between calls).
	p2, r2, n2 := tri.PeelResidual(defects)
	if p2 != parity || n2 != peeled || !slices.Equal(r2, resCopy) {
		t.Fatalf("%v: PeelResidual not idempotent on %v: (%v,%v,%d) then (%v,%v,%d)",
			g, defects, parity, resCopy, peeled, p2, r2, n2)
	}
}

func isSubsequence(sub, full []int32) bool {
	j := 0
	for _, v := range full {
		if j < len(sub) && sub[j] == v {
			j++
		}
	}
	return j == len(sub)
}

// peelDecoders is decodersFor minus the hierarchical router. The strict
// XOR identity (peel ^ decode(residual) == decode(whole)) holds for any
// decoder that resolves an isolated defect group the same way standalone
// as inside the full syndrome — true for the Union-Find family (per-group
// evolution is context-free under the isolation invariant; decodeSparse is
// built on exactly that) and for deterministic min-weight matchers. The
// hierarchical router is context-sensitive by design: whether its local
// first stage or its fallback fires depends on the whole syndrome, so on a
// residual with a weight tie between homology classes (e.g. a B=1 pair at
// distance 2: boundary pair vs interior chain, both weight 2) the two
// routes can pick different — equally valid, equally minimal — classes,
// and the identity legitimately fails. The decomposition only claims
// outcome equivalence for the decoder that actually decodes the residual
// (the kernels use Union-Find), so hierarchical is checked everywhere else
// but not here.
func peelDecoders(g *lattice.Graph) []namedDecoder {
	all := decodersFor(g)
	out := all[:0]
	for _, d := range all {
		if d.name != "hierarchical" {
			out = append(out, d)
		}
	}
	return out
}

// TestPeelResidualExhaustiveWeight3 sweeps every weight-3 placement on the
// small graphs. Weight 3 is the smallest weight PeelResidual acts on and
// the richest source of peel/demote boundaries relative to its size:
// pair+single splits, near-boundary duo bands, and triangle components.
func TestPeelResidualExhaustiveWeight3(t *testing.T) {
	var st peelStats
	for _, g := range triageGraphs() {
		if g.V > 64 {
			continue // cubic-in-V sweep: the larger graphs are covered randomly
		}
		tri := core.NewTriage(g)
		decs := peelDecoders(g)
		for u := int32(0); u < int32(g.V); u++ {
			for v := u + 1; v < int32(g.V); v++ {
				for w := v + 1; w < int32(g.V); w++ {
					checkPeelResidual(t, g, tri, decs, []int32{u, v, w}, &st)
				}
			}
		}
	}
	// The tiniest graph demotes everything (no isolation room at d=3), so
	// the outcome-coverage assertion is over the whole sweep.
	if st.partial == 0 || st.resolved == 0 || st.unpeeled == 0 {
		t.Fatalf("exhaustive weight-3 sweep missed a peel outcome class (stats %+v)", st)
	}
}

// TestPeelResidualRandomSyndromes drives the decomposition with two
// generators — fault-sampled syndromes (XOR of random edge sets, the
// structure the noise model produces) and adversarial uniform vertex
// sets — across all tier-1 graphs.
func TestPeelResidualRandomSyndromes(t *testing.T) {
	var st peelStats
	for _, g := range triageGraphs() {
		tri := core.NewTriage(g)
		decs := peelDecoders(g)
		rng := rand.New(rand.NewPCG(11, uint64(g.V)))
		flip := make(map[int32]bool)
		defects := make([]int32, 0, 24)
		for trial := 0; trial < 1500; trial++ {
			// Fault-sampled generator.
			clear(flip)
			for f := 2 + rng.IntN(7); f > 0; f-- {
				ed := &g.Edges[rng.IntN(len(g.Edges))]
				for _, v := range [2]int32{ed.U, ed.V} {
					if !g.IsBoundary(v) {
						flip[v] = !flip[v]
					}
				}
			}
			defects = defects[:0]
			for v, on := range flip {
				if on {
					defects = append(defects, v)
				}
			}
			slices.Sort(defects)
			if len(defects) >= 3 {
				checkPeelResidual(t, g, tri, decs, defects, &st)
			}

			// Adversarial generator: uniform distinct vertices.
			clear(flip)
			for len(flip) < 3+rng.IntN(8) {
				flip[int32(rng.IntN(g.V))] = true
			}
			defects = defects[:0]
			for v := range flip {
				defects = append(defects, v)
			}
			slices.Sort(defects)
			checkPeelResidual(t, g, tri, decs, defects, &st)
		}
	}
	if st.resolved == 0 || st.partial == 0 || st.unpeeled == 0 {
		t.Fatalf("random sweep missed a peel outcome class (stats %+v)", st)
	}
}

// Steady-state peeling must not allocate: the residual buffer and the
// peel scratch are owned by the Triage and reused across calls.
func TestPeelResidualZeroAllocSteadyState(t *testing.T) {
	g := lattice.New3D(7, 7)
	tri := core.NewTriage(g)
	rng := rand.New(rand.NewPCG(19, 7))
	var syndromes [][]int32
	flip := make(map[int32]bool)
	for len(syndromes) < 16 {
		clear(flip)
		for f := 3 + rng.IntN(6); f > 0; f-- {
			ed := &g.Edges[rng.IntN(len(g.Edges))]
			for _, v := range [2]int32{ed.U, ed.V} {
				if !g.IsBoundary(v) {
					flip[v] = !flip[v]
				}
			}
		}
		defects := make([]int32, 0, 16)
		for v, on := range flip {
			if on {
				defects = append(defects, v)
			}
		}
		slices.Sort(defects)
		if len(defects) >= 3 {
			syndromes = append(syndromes, defects)
		}
	}
	for _, s := range syndromes {
		tri.PeelResidual(s) // warm the residual buffer
	}
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		tri.PeelResidual(syndromes[i%len(syndromes)])
		i++
	})
	if avg != 0 {
		t.Fatalf("PeelResidual allocates %.1f times per call in steady state", avg)
	}
}

// FuzzPeelResidual is the differential fuzz gate (CI fuzz-smoke): on the
// d=5 cubic graph, peel parity XOR residual decode parity must equal the
// undecomposed decode parity for every syndrome the fuzzer constructs. The
// seed corpus is built from captured fault-sampled syndromes the peel
// cannot certify whole — the inputs that leave a residual for the decoder,
// where the certificate's demotion logic does its work.
func FuzzPeelResidual(f *testing.F) {
	g := lattice.New3D(5, 5)
	tri := core.NewTriage(g)
	dec := core.NewDecoder(g, core.Options{})

	// Residual-leaving captures as seeds (deterministic).
	rng := rand.New(rand.NewPCG(17, 5))
	flip := make(map[int32]bool)
	for seeds := 0; seeds < 12; {
		clear(flip)
		for fts := 2 + rng.IntN(6); fts > 0; fts-- {
			ed := &g.Edges[rng.IntN(len(g.Edges))]
			for _, v := range [2]int32{ed.U, ed.V} {
				if !g.IsBoundary(v) {
					flip[v] = !flip[v]
				}
			}
		}
		defects := make([]int32, 0, 16)
		for v, on := range flip {
			if on {
				defects = append(defects, v)
			}
		}
		slices.Sort(defects)
		if len(defects) < 3 {
			continue
		}
		if _, res, _ := tri.PeelResidual(defects); len(res) == 0 {
			continue
		}
		raw := make([]byte, len(defects))
		for i, v := range defects {
			raw[i] = byte(v)
		}
		f.Add(raw)
		seeds++
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 20 {
			raw = raw[:20]
		}
		seen := make(map[int32]bool)
		defects := make([]int32, 0, len(raw))
		for _, b := range raw {
			v := int32(b) % int32(g.V)
			if !seen[v] {
				seen[v] = true
				defects = append(defects, v)
			}
		}
		slices.Sort(defects)
		parity, res, _ := tri.PeelResidual(defects)
		res = slices.Clone(res)
		full := dec.Decode(defects)
		checkSyndrome(t, g, full, defects)
		want := cutParity(g, full)
		got := parity
		if len(res) > 0 {
			rc := dec.Decode(res)
			checkSyndrome(t, g, rc, res)
			got = got != cutParity(g, rc)
		}
		if got != want {
			t.Fatalf("peel parity %v != full parity %v on %v (residual %v)", got, want, defects, res)
		}
	})
}
