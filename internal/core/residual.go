package core

import "afs/internal/lut"

// Partial-residual decomposition (the triage layer's last line before the
// full decoder).
//
// The closed-form triage rules stop at weight 2, and at the design point
// the full decodes of heavier syndromes — at ~3.7 µs each — are the batched
// pipeline's Amdahl floor. Almost every heavier syndrome at deployment
// error rates is a scatter of independent single-fault signatures:
// adjacent defect pairs from interior faults, duos from two faults sharing
// a vertex, boundary singles from boundary faults. PeelResidual decomposes
// the syndrome into those components with per-component *demotion* in
// place of whole-syndrome rejection, applies the certified components'
// closed-form cut parities directly, and returns only the ambiguous
// remainder for the decoder. The full decode population shrinks
// (syndromes whose every component certifies resolve here outright) and
// each surviving decode gets smaller (the decoder sees the residual defect
// set, not the whole syndrome) — both factors of the floor.
//
// # The certificate
//
// Soundness rests on the same radius-bound argument as the sparse shortcut
// (see sparse.go): under half-edge growth a cluster born at defect u absorbs
// only vertices within L1 distance B(u) of u (B = fault distance to the
// nearest boundary — once that ball is absorbed the cluster has touched the
// boundary and gone inactive), and two groups of defects can interact only
// if some cross pair (i, j) satisfies L1(i, j) <= R(i)+R(j)+1, where R is a
// valid per-defect influence radius — otherwise no edge can ever complete
// between their absorbed regions and each group evolves exactly as it would
// alone. The certified component classes and their radii:
//
//   - adjacent pair / matchable quad (distance-1 component of size 2, or
//     size 4 with a perfect matching): merges in growth round one having
//     absorbed nothing beyond its defects. R = 0, cut parity 0. Any two
//     minimal corrections pair the defects through interior edges and
//     differ by interior cycles. A star K_{1,3} has no perfect matching and
//     demotes, which is necessary: its cheapest resolutions mix interior
//     and boundary chains at equal cost.
//
//   - interior duo (two leftover singles at distance D with
//     2 <= D < 2*min(B(u), B(v)), each the other's unique such partner):
//     the W2 interior-merge rule generalized into the decomposition. Both
//     clusters stay active until they merge at round D — boundary contact
//     would take round 2B > D — with each frontier having grown D/2 edges
//     (for odd D one frontier completes the middle edge), so every absorbed
//     vertex is within R = ceil(D/2) of its own defect, and D < 2*min(B)
//     gives R <= min(B) <= B. The merged cluster is even and final: cut
//     parity 0. Minimal-
//     weight decoders concur: D < 2*min <= B(u)+B(v) makes the interior
//     chain strictly cheaper than any boundary-touching resolution, so the
//     u-v homology class is unique.
//
//   - boundary single (strict side): resolves to its nearest boundary.
//     R = B, cut parity = the north-side bit (the W1 rule).
//
//   - residual (everything demoted: oversize or unmatchable distance-1
//     components, side ties, singles with zero or multiple duo partners):
//     decoded as one group by the full pipeline. R = B per member — the
//     unconditional bound above, valid whatever the decoder does inside
//     the group.
//
// The demotion fixpoint then enforces the isolation invariant: any
// cross-group pair (i, j) with L1(i, j) <= R(i)+R(j)+1 demotes *both*
// groups to the residual (their isolation certificates cannot be
// established, so the decoder must see them together). Demotion only ever
// moves components into the residual and never back, and demoted members
// revert to the unconditional radius B, so the loop is monotone and
// terminates; the terminal partition satisfies the invariant with radii
// valid for the terminal classification. Certified components therefore
// evolve exactly as they would alone under every decoder the triage layer
// is sound for — regardless of what correction the decoder produces for
// the residual — and the whole syndrome's cut parity is the XOR of the
// certified closed forms with the residual decode's parity.
//
// Finally, a residual of weight <= 2 is retried through ClassifySyndrome:
// its closed forms (W1 single at R = B, W2 interior merge at R < B, W2
// independent singles at R = B) all stay within the radius-B bound the
// fixpoint already validated for the residual members, so folding their
// parity in is sound and the trial resolves with no decoder work at all.
//
// The differential tests (residual_test.go) enforce the certificate the
// same way the triage layer's were: exhaustive small-d placements,
// randomized fault-shaped and adversarial syndromes, and fuzzing, with the
// peeled-plus-residual parity compared against an undecomposed full decode
// under every decoder in the repo including MWPM.

// maxTriageDefects bounds the decomposition's scratch space; heavier
// syndromes (far above the design-point mean) go to the full decoder whole.
const maxTriageDefects = 32

// peelScratch is the fixed-size working set of PeelResidual: unpacked
// defect coordinates, per-defect influence radii and boundary distances,
// the grouping and peel state, the cached pairwise L1 distances (both
// triangles), and the sparse list of distance-1 pairs. A defect has at
// most 6 lattice neighbours, which bounds the pair list.
type peelScratch struct {
	r, c, t [maxTriageDefects]int32
	rad     [maxTriageDefects]int32
	bnd     [maxTriageDefects]int32 // boundary distance B
	grp     [maxTriageDefects]int8  // group id (smallest member index)
	deg     [maxTriageDefects]int8  // distance-1 adjacency degree
	cnt     [maxTriageDefects]int8  // members per group id
	st      [maxTriageDefects]uint8 // peel state
	d       [maxTriageDefects][maxTriageDefects]int32
	adj1    [3 * maxTriageDefects][2]int8 // pairs at distance 1
}

// Peel states (peelScratch.st): how each defect's component left the
// decomposition. plSingle doubles as the initial state — a defect not yet
// claimed by a pairing class is a candidate single until demoted.
const (
	plSingle uint8 = iota // certified strict-side boundary single (R = B)
	plPair                // member of a certified pair/quad (R = 0)
	plDuo                 // member of a certified interior duo (R = ceil(D/2))
	plResid               // demoted to the residual decode set (R = B)
)

// PeelResidual decomposes a syndrome the closed-form triage punted: it
// certifies the components whose isolation holds regardless of the
// ambiguous remainder, XORs their closed-form cut parities into parity, and
// returns the residual defect set the caller must still decode (empty when
// everything certified). peeled counts the certified components. The
// residual slice aliases either kernel-owned scratch or defects itself and
// is valid until the next PeelResidual call. defects must be sorted as
// produced by the samplers; the residual preserves that order.
//
// Syndromes beyond maxTriageDefects (or trivially small ones) return
// unpeeled: parity 0, the input as residual, peeled 0.
func (t *Triage) PeelResidual(defects []int32) (parity bool, residual []int32, peeled int) {
	k := len(defects)
	if k < 3 || k > maxTriageDefects {
		return false, defects, 0
	}
	s := &t.ps
	r, c, tt := s.r[:k], s.c[:k], s.t[:k]
	rad, grp, deg, cnt := s.rad[:k], s.grp[:k], s.deg[:k], s.cnt[:k]
	bnd, st := s.bnd[:k], s.st[:k]
	for i, v := range defects {
		p := t.g.PackedCoords(v)
		r[i] = int32(p & 0xffff)
		c[i] = int32(p >> 16 & 0xffff)
		tt[i] = int32(p >> 32 & 0xffff)
		bnd[i] = int32(p >> 48)
		rad[i] = bnd[i]
		grp[i] = int8(i)
		deg[i] = 0
		cnt[i] = 1
		st[i] = plSingle
	}
	// Pairwise distances (symmetric — the demotion fixpoint sweeps both
	// triangles), distance-1 adjacency degrees, and the d == 1 pair list.
	conflict := false
	n1 := 0
	for i := 0; i < k; i++ {
		di := s.d[i][:k]
		ri, ci, ti := r[i], c[i], tt[i]
		for j := i + 1; j < k; j++ {
			d := abs32(ri-r[j]) + abs32(ci-c[j]) + abs32(ti-tt[j])
			di[j] = d
			s.d[j][i] = d
			if d == 1 {
				deg[i]++
				deg[j]++
				conflict = conflict || deg[i] > 1 || deg[j] > 1
				s.adj1[n1] = [2]int8{int8(i), int8(j)}
				n1++
			}
		}
	}
	// Distance-1 components. Without adjacency conflicts the pairs are
	// disjoint dominoes; with conflicts, label propagation finds the
	// components and each certifies (size 2, or a matchable size 4) or
	// demotes on its own.
	if !conflict {
		for a := 0; a < n1; a++ {
			i, j := s.adj1[a][0], s.adj1[a][1]
			grp[j] = i
			cnt[i], cnt[j] = 2, 0
			rad[i], rad[j] = 0, 0
			st[i], st[j] = plPair, plPair
		}
	} else {
		for changed := true; changed; {
			changed = false
			for a := 0; a < n1; a++ {
				i, j := s.adj1[a][0], s.adj1[a][1]
				if grp[i] != grp[j] {
					m := grp[i]
					if grp[j] < m {
						m = grp[j]
					}
					grp[i], grp[j] = m, m
					changed = true
				}
			}
		}
		for i := 0; i < k; i++ {
			cnt[i] = 0
		}
		for i := 0; i < k; i++ {
			cnt[grp[i]]++
		}
		for i := 0; i < k; i++ {
			gi := int(grp[i])
			if gi != i {
				continue
			}
			certified := cnt[i] == 2 || (cnt[i] == 4 && t.quadMatchable(k, i))
			if cnt[i] == 1 {
				continue // leftover single: decided below
			}
			for m := 0; m < k; m++ {
				if int(grp[m]) != gi {
					continue
				}
				if certified {
					st[m], rad[m] = plPair, 0
				} else {
					st[m] = plResid // rad stays B
				}
			}
		}
	}
	// Interior-duo pairing among the leftover singles: each single's
	// candidates are the other singles within the interior-merge band
	// 2 <= D < 2*min(B). A unique mutual candidate certifies the duo at
	// radius ceil(D/2); zero or multiple candidates leave the defect a
	// single —
	// the ambiguity, if real, is caught by the isolation fixpoint below
	// (a spurned candidate sits at D <= B(i)+B(j)+1 by construction, so
	// uncertifiable closeness always demotes). deg is dead after the
	// pairing pass and is reused as the candidate store.
	for i := 0; i < k; i++ {
		deg[i] = -1
	}
	for i := 0; i < k; i++ {
		if cnt[i] != 1 || st[i] != plSingle {
			continue
		}
		di := s.d[i][:k]
		for j := i + 1; j < k; j++ {
			if cnt[j] != 1 || st[j] != plSingle {
				continue
			}
			mn := bnd[i]
			if bnd[j] < mn {
				mn = bnd[j]
			}
			if di[j] < 2*mn { // D >= 2 is automatic for singles
				if deg[i] == -1 {
					deg[i] = int8(j)
				} else {
					deg[i] = -2
				}
				if deg[j] == -1 {
					deg[j] = int8(i)
				} else {
					deg[j] = -2
				}
			}
		}
	}
	for i := 0; i < k; i++ {
		if cnt[i] != 1 || st[i] != plSingle {
			continue
		}
		j := int(deg[i])
		if j > i && deg[j] == int8(i) { // mutual uniqueness: see the doc
			grp[j] = int8(i)
			cnt[i], cnt[j] = 2, 0
			rd := (s.d[i][j] + 1) / 2 // ceil(D/2)
			rad[i], rad[j] = rd, rd
			st[i], st[j] = plDuo, plDuo
		}
	}
	// Remaining singles: strict side certifies (R = B, parity from the
	// side bit, folded after the fixpoint); ties demote.
	for i := 0; i < k; i++ {
		if cnt[i] == 1 && st[i] == plSingle && t.bd.Side[defects[i]] == lut.SideTie {
			st[i] = plResid // rad is already B
		}
	}
	// Isolation demotion fixpoint: a cross-group pair within the invariant
	// slack demotes both groups (residual members keep radius B; certified
	// members revert to it). Monotone — groups only ever enter the
	// residual — so the sweep repeats until clean.
	for changed := true; changed; {
		changed = false
		for i := 0; i < k; i++ {
			di := s.d[i][:k]
			slack := rad[i] + 1
			for j := i + 1; j < k; j++ {
				if grp[j] == grp[i] || (st[i] == plResid && st[j] == plResid) {
					continue
				}
				if di[j] > slack+rad[j] {
					continue
				}
				for _, x := range [2]int{i, j} {
					if st[x] == plResid {
						continue
					}
					gx := grp[x]
					for m := 0; m < k; m++ {
						if grp[m] == gx {
							st[m] = plResid
							rad[m] = bnd[m]
						}
					}
					changed = true
				}
				slack = rad[i] + 1 // i's radius may have just grown
			}
		}
	}
	// Collect: certified parities XOR together; residual keeps input order
	// (defects arrive sorted, so the residual is sorted too).
	t.res = t.res[:0]
	for i := 0; i < k; i++ {
		if st[i] == plResid {
			t.res = append(t.res, defects[i])
			continue
		}
		if int(grp[i]) == i {
			peeled++
		}
		if st[i] == plSingle && t.bd.Side[defects[i]] == lut.SideNorth {
			parity = !parity
		}
	}
	if len(t.res) == k {
		return false, defects, 0
	}
	// A weight <= 2 residual gets one more shot at a closed form: the W1/W2
	// rules' radii never exceed the B-per-member bound the fixpoint already
	// validated for the residual, so their parity folds in soundly.
	if n := len(t.res); n > 0 && n <= 2 {
		if _, p2, ok := t.ClassifySyndrome(t.res); ok {
			if p2 {
				parity = !parity
			}
			peeled++
			t.res = t.res[:0]
		}
	}
	return parity, t.res, peeled
}

// quadMatchable reports whether the 4-defect component with group id gid
// admits a perfect matching in its distance-1 graph.
func (t *Triage) quadMatchable(k, gid int) bool {
	s := &t.ps
	var m [4]int
	n := 0
	for i := 0; i < k; i++ {
		if int(s.grp[i]) == gid {
			m[n] = i
			n++
		}
	}
	d := &s.d
	return (d[m[0]][m[1]] == 1 && d[m[2]][m[3]] == 1) ||
		(d[m[0]][m[2]] == 1 && d[m[1]][m[3]] == 1) ||
		(d[m[0]][m[3]] == 1 && d[m[1]][m[2]] == 1)
}
