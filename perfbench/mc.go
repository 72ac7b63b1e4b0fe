package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"afs"
	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/montecarlo"
	"afs/internal/noise"
	"afs/internal/obs"
)

// mcParams is one Monte-Carlo workload: every measured operation is one
// afs.MeasureLogicalErrorRate call with a fixed trial budget.
type mcParams struct {
	d      int
	p      float64
	budget uint64 // trials per facade call
	// quick is the toy-size variant the benchmark's tests run.
	quickD      int
	quickBudget uint64
	// latencyTrials sizes the microarch model sample of a traced run.
	latencyTrials int
}

var (
	// 16-37 ms per call on the 2-vCPU reference host: hundreds of calls per
	// run for the latency percentiles, while the per-call kernel set-up
	// stays small next to the decode work.
	mcDesign = mcParams{d: 11, p: 1e-3, budget: 1 << 16, quickD: 5, quickBudget: 1 << 12, latencyTrials: 20000}
	// 35-70 ms per call on the reference host; ~1% of trials fail.
	mcHeavy = mcParams{d: 11, p: 0.02, budget: 1 << 11, quickD: 5, quickBudget: 1 << 11, latencyTrials: 2000}
)

func (m mcParams) sized(quick bool) mcParams {
	if quick {
		m.d, m.budget, m.latencyTrials = m.quickD, m.quickBudget, 500
	}
	return m
}

//go:embed reference.json
var referenceJSON []byte

func loadReference(d int, p float64) (referenceRate, error) {
	var refs []referenceRate
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return referenceRate{}, fmt.Errorf("reference.json: %w", err)
	}
	for _, r := range refs {
		if r.Distance == d && r.P == p {
			return r, nil
		}
	}
	return referenceRate{}, fmt.Errorf("reference.json has no rate for d=%d p=%g", d, p)
}

func runMCDesign(c *runCtx) error { return runMC(c, mcDesign, false) }
func runMCHeavy(c *runCtx) error  { return runMC(c, mcHeavy, true) }

// mcCall is one measured facade call.
type mcCall struct {
	dt               time.Duration
	trials, failures uint64
	meanWeight       float64
	seed             uint64
	defects          uint64
	slot             int32 // speedMeter slot
}

func mcConfig(m mcParams, seed uint64, trials uint64) afs.AccuracyConfig {
	return afs.AccuracyConfig{Distance: m.d, P: m.p, Trials: trials, Seed: seed, Workers: workers()}
}

// callSeed derives the facade seed of call i from the run seed.
func callSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i) }

// mcCalls runs facade calls back to back for d and returns them.
func mcCalls(c *runCtx, m mcParams, d time.Duration, meter *speedMeter) []mcCall {
	var calls []mcCall
	start := time.Now()
	for i := 0; time.Since(start) < d || len(calls) < 3; i++ {
		slot := meter.tick()
		seed := callSeed(c.seed, i)
		t0 := time.Now()
		res, err := afs.MeasureLogicalErrorRate(mcConfig(m, seed, m.budget))
		dt := time.Since(t0)
		if err == nil && res.Trials != m.budget {
			err = fmt.Errorf("call %d ran %d of %d trials", i, res.Trials, m.budget)
		}
		c.op(err)
		if err != nil {
			continue
		}
		calls = append(calls, mcCall{
			dt: dt, trials: res.Trials, failures: res.Failures, meanWeight: res.MeanSyndromeWeight,
			seed:    seed,
			defects: uint64(res.MeanSyndromeWeight*float64(res.Trials) + 0.5),
			slot:    slot,
		})
	}
	meter.probe()
	return calls
}

func runMC(c *runCtx, m mcParams, accuracy bool) error {
	m = m.sized(c.quick)
	if err := c.measureSetup(); err != nil {
		return err
	}
	g := lattice.Cached3D(m.d, m.d)

	var ms memStats
	before, err := readMCObs()
	if err != nil {
		return err
	}
	meter := c.newSpeedMeter()
	ms.start()
	calls := mcCalls(c, m, c.measureFor(), meter)
	ms.stop()
	after, err := readMCObs()
	if err != nil {
		return err
	}
	if len(calls) == 0 {
		return fmt.Errorf("no facade call succeeded")
	}

	var trials, failures uint64
	var weights []float64
	callNS := newSamples(true, len(calls))
	var wall time.Duration
	for _, cl := range calls {
		trials += cl.trials
		failures += cl.failures
		wall += cl.dt
		callNS.add(float64(cl.dt.Nanoseconds()), cl.slot)
		weights = append(weights, cl.meanWeight)
	}
	c.check("triage_partition", checkTriagePartition(after.sub(before), trials))
	c.check("syndrome_weight", checkSyndromeWeight(weights, expectedDefects(g, m.p)))
	if accuracy {
		ref, err := loadReference(m.d, m.p)
		if err == nil {
			err = checkRateAgainstReference(failures, trials, ref)
		}
		c.check("logical_error_rate", err)
	}
	c.notef("%d facade calls (latency samples), %d trials, %d failures", len(calls), trials, failures)

	if err := c.setTimings(meter, callNS, float64(m.budget), callNS); err != nil {
		return err
	}
	if err := c.setPeakRSS(); err != nil {
		return err
	}
	if !c.traced {
		return nil
	}

	// Traced half: the same trials through the benchmark's replica of the
	// engine's shot kernel, with a span around every call into a layer.
	c.setRuntime(&ms, float64(trials))
	c.set("loadgen.latency_samples", float64(len(calls)))
	e2eNS := float64(wall.Nanoseconds()) * float64(workers()) / float64(trials) * meter.runFactor()
	c.set("lattice.graph_build_ms", timeGraphBuild(func() { lattice.New3D(m.d, m.d) }))
	if err := tracedMC(c, m, g, calls[0], e2eNS); err != nil {
		return err
	}
	lat, err := afs.MeasureLatency(afs.LatencyConfig{Distance: m.d, P: m.p, Trials: m.latencyTrials, Seed: c.seed, Workers: workers()})
	if err != nil {
		return err
	}
	c.set("microarch.model_ns_mean", lat.Summary.Mean)
	c.set("microarch.model_ns_p999", lat.Summary.P999)
	return nil
}

// timeGraphBuild returns the median of three uncached graph constructions
// in milliseconds.
func timeGraphBuild(build func()) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		build()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(xs)
}

// probeMCSetup times the first facade call of a fresh process with one
// chunk per worker: lattice graph construction plus every worker's shot
// kernel (sampler, triage tables, decoder).
func probeMCSetup(m mcParams) func(c *runCtx) (float64, error) {
	return func(c *runCtx) (float64, error) {
		m := m.sized(c.quick)
		t0 := time.Now()
		_, err := afs.MeasureLogicalErrorRate(mcConfig(m, c.seed, 1))
		return time.Since(t0).Seconds(), err
	}
}

func (a triageTally) sub(b triageTally) triageTally {
	return triageTally{a.trials - b.trials, a.w0 - b.w0, a.w1 - b.w1, a.w2 - b.w2, a.multi - b.multi, a.full - b.full}
}

// readObsCounters renders the default obs registry and returns its
// counters by name.
func readObsCounters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default().WriteVarsJSON(&buf); err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		var x float64
		if json.Unmarshal(v, &x) == nil {
			out[k] = x
		}
	}
	return out, nil
}

// readMCObs snapshots the Monte-Carlo engine's obs counters.
func readMCObs() (triageTally, error) {
	m, err := readObsCounters()
	if err != nil {
		return triageTally{}, err
	}
	u := func(name string) uint64 { return uint64(m[name]) }
	return triageTally{
		trials: u("afs_mc_trials_total"),
		w0:     u("afs_mc_triage_w0_total"),
		w1:     u("afs_mc_triage_w1_total"),
		w2:     u("afs_mc_triage_w2_total"),
		multi:  u("afs_mc_triage_multi_total"),
		full:   u("afs_mc_full_decodes_total"),
	}, nil
}

// replica is the benchmark's copy of the Monte-Carlo engine's scalar shot
// kernel, built from the same public layer calls (noise.BatchSampler,
// core.Triage, core.Decoder) and the same per-chunk seeding, so a replica
// run reproduces the facade's failures and defect counts exactly. It runs
// each 256-trial batch in phases — sample, triage, peel, Union-Find, check
// — so one span per phase times a layer without a clock read per trial.
type replica struct {
	s   *noise.BatchSampler
	tri *core.Triage
	dec *core.Decoder
	cut []bool
	b   noise.Batch
	log spanLog

	par     []bool
	state   []uint8
	resBuf  []int32
	resOff  []int32
	ufQueue []int32
	tally   replicaTally
}

type replicaTally struct {
	trials, failures, defects uint64
	triageResolved            uint64
	peelCalls, peelResolved   uint64
	ufCalls, ufDefects        uint64
}

func (t *replicaTally) add(o replicaTally) {
	t.trials += o.trials
	t.failures += o.failures
	t.defects += o.defects
	t.triageResolved += o.triageResolved
	t.peelCalls += o.peelCalls
	t.peelResolved += o.peelResolved
	t.ufCalls += o.ufCalls
	t.ufDefects += o.ufDefects
}

const (
	stDone uint8 = iota
	stPeel
	stUF
	stUFResidual
)

func newReplica(g *lattice.Graph, p float64) *replica {
	r := &replica{
		s:   noise.NewBatchSampler(g, p, 0, 0, g.NorthCutQubits()),
		tri: core.NewTriage(g),
		// The facade's Union-Find factory: lean statistics, no shortcut.
		dec: core.NewDecoder(g, core.Options{LeanStats: true}),
	}
	r.cut = r.s.CutEdges()
	return r
}

// chunk runs trials [0, n) of chunk ci under the engine's seeding.
func (r *replica) chunk(seed uint64, ci uint64, n uint64) {
	root := r.log.add("montecarlo.chunk", -1, int64(ci), nowNS(), 0)
	r.s.Reseed(seed, ci)
	for n > 0 {
		k := montecarlo.BatchTrials
		if n < uint64(k) {
			k = int(n)
		}
		r.batch(root, int64(ci), k)
		n -= uint64(k)
	}
	r.log.spans[root].End = nowNS()
}

func (r *replica) batch(root int32, op int64, k int) {
	t0 := nowNS()
	r.s.SampleBatch(&r.b, k)
	t1 := nowNS()
	r.log.add("noise.sample", root, op, t0, t1)

	// Triage: weight 0 resolves outright; weights 1-2 go to the closed
	// forms; heavier syndromes go to the partial-residual peel, exactly as
	// the engine's kernel routes them.
	b := &r.b
	r.par = append(r.par[:0], b.CutParity[:k]...)
	r.state = r.state[:0]
	r.ufQueue = r.ufQueue[:0]
	tl := &r.tally
	tl.trials += uint64(k)
	var peelQ int
	for i := 0; i < k; i++ {
		df := b.Defects[b.DefectOff[i]:b.DefectOff[i+1]]
		tl.defects += uint64(len(df))
		switch {
		case len(df) == 0:
			tl.triageResolved++
			r.state = append(r.state, stDone)
		case len(df) >= 3:
			r.state = append(r.state, stPeel)
			peelQ++
		default:
			if _, p, ok := r.tri.ClassifySyndrome(df); ok {
				tl.triageResolved++
				r.par[i] = r.par[i] != p
				r.state = append(r.state, stDone)
			} else {
				r.state = append(r.state, stUF)
				r.ufQueue = append(r.ufQueue, int32(i))
			}
		}
	}
	t2 := nowNS()
	r.log.add("core.triage", root, op, t1, t2)

	r.resBuf = r.resBuf[:0]
	r.resOff = append(r.resOff[:0], 0)
	if peelQ > 0 {
		for i := 0; i < k; i++ {
			if r.state[i] != stPeel {
				continue
			}
			df := b.Defects[b.DefectOff[i]:b.DefectOff[i+1]]
			pp, res, _ := r.tri.PeelResidual(df)
			tl.peelCalls++
			if pp {
				r.par[i] = !r.par[i]
			}
			if len(res) == 0 {
				tl.peelResolved++
				r.state[i] = stDone
				continue
			}
			// The residual aliases triage scratch: keep a copy for the
			// Union-Find phase.
			r.state[i] = stUFResidual
			r.resBuf = append(r.resBuf, res...)
			r.resOff = append(r.resOff, int32(len(r.resBuf)))
			r.ufQueue = append(r.ufQueue, int32(i))
		}
	}
	t3 := nowNS()
	r.log.add("core.peel", root, op, t2, t3)

	resIdx := 0
	for _, i := range r.ufQueue {
		var df []int32
		if r.state[i] == stUFResidual {
			df = r.resBuf[r.resOff[resIdx]:r.resOff[resIdx+1]]
			resIdx++
		} else {
			df = b.Defects[b.DefectOff[i]:b.DefectOff[i+1]]
		}
		tl.ufCalls++
		tl.ufDefects += uint64(len(df))
		for _, e := range r.dec.Decode(df) {
			if r.cut[e] {
				r.par[i] = !r.par[i]
			}
		}
	}
	t4 := nowNS()
	r.log.add("core.uf", root, op, t3, t4)

	for i := 0; i < k; i++ {
		if r.par[i] {
			tl.failures++
		}
	}
	r.log.add("montecarlo.check", root, op, t4, nowNS())
}

// replicaCall runs one facade-equivalent call (same seed, budget and
// chunking) over the workers' replicas and returns its wall time.
func replicaCall(reps []*replica, seed, budget uint64) time.Duration {
	chunk := uint64(montecarlo.DefaultChunkTrials)
	nChunks := (budget + chunk - 1) / chunk
	var next atomic.Uint64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, r := range reps {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			for {
				ci := next.Add(1) - 1
				if ci >= nChunks {
					return
				}
				lo := ci * chunk
				hi := lo + chunk
				if hi > budget {
					hi = budget
				}
				r.chunk(seed, ci, hi-lo)
			}
		}(r)
	}
	wg.Wait()
	return time.Since(t0)
}

// tracedMC runs the replica for the traced half, checks it against the
// facade call it mirrors, and reports the Monte-Carlo per-layer metrics and
// the closure of their self times against the untraced per-trial cost.
func tracedMC(c *runCtx, m mcParams, g *lattice.Graph, first mcCall, e2eNS float64) error {
	reps := make([]*replica, workers())
	for i := range reps {
		reps[i] = newReplica(g, m.p)
	}
	// The first call mirrors the first facade call: identical results are
	// the evidence that the replica does the facade's work.
	replicaCall(reps, first.seed, m.budget)
	var tot replicaTally
	for _, r := range reps {
		tot.add(r.tally)
	}
	var err error
	if tot.failures != first.failures || tot.defects != first.defects || tot.trials != first.trials {
		err = fmt.Errorf("replica: %d trials %d failures %d defects, facade: %d trials %d failures %d defects",
			tot.trials, tot.failures, tot.defects, first.trials, first.failures, first.defects)
	}
	c.check("replica_matches_facade", err)

	// Timed traced calls start from clean logs and tallies.
	for _, r := range reps {
		r.log = spanLog{}
		r.tally = replicaTally{}
	}
	var wall time.Duration
	meter := c.newSpeedMeter()
	start := time.Now()
	for i := 0; time.Since(start) < c.measureFor() || i < 2; i++ {
		meter.tick()
		wall += replicaCall(reps, callSeed(c.seed, i), m.budget)
	}
	meter.probe()
	if meter.err != nil {
		return meter.err
	}
	scale := meter.runFactor()
	tot = replicaTally{}
	for _, r := range reps {
		tot.add(r.tally)
		c.spans.merge(&r.log)
	}
	agg := c.spans.aggregate()
	n := float64(tot.trials)
	self := func(name string) float64 {
		if t := agg[name]; t != nil {
			return t.SelfNS * scale
		}
		return 0
	}
	layers := self("noise.sample") + self("core.triage") + self("core.peel") + self("core.uf") + self("montecarlo.check")
	c.set("noise.sample_ns_per_trial", self("noise.sample")/n)
	c.set("noise.defects_per_trial", float64(tot.defects)/n)
	c.set("core.triage_ns_per_trial", self("core.triage")/n)
	c.set("core.triage_resolved_frac", float64(tot.triageResolved)/n)
	if tot.peelCalls > 0 {
		c.set("core.peel_ns_per_call", self("core.peel")/float64(tot.peelCalls))
		c.set("core.peel_resolved_frac", float64(tot.peelResolved)/float64(tot.peelCalls))
	}
	if tot.ufCalls > 0 {
		c.set("core.uf_ns_per_call", self("core.uf")/float64(tot.ufCalls))
		c.set("core.uf_defects_per_call", float64(tot.ufDefects)/float64(tot.ufCalls))
	}
	c.set("core.uf_calls_per_trial", float64(tot.ufCalls)/n)
	c.set("montecarlo.check_ns_per_trial", self("montecarlo.check")/n)
	gap := 1 - layers/n/e2eNS
	c.set("montecarlo.unattributed_frac", gap)
	c.set("trace.closure_gap_frac", gap)
	tracedNS := float64(wall.Nanoseconds()) * float64(workers()) / n * scale
	c.set("trace.overhead_frac", tracedNS/e2eNS-1)
	c.notef("closure: layer self times %.1f ns/trial vs untraced %.1f ns/trial per worker (gap %.1f%%)", layers/n, e2eNS, 100*gap)
	return nil
}

// calibrateReference measures the mc-heavy reference rates (full and quick
// size) with triage disabled and writes them as reference.json.
func calibrateReference(w io.Writer) error {
	var refs []referenceRate
	for _, m := range []mcParams{mcHeavy, mcHeavy.sized(true)} {
		const trials, seed = 1 << 21, 20221
		r := montecarlo.RunAccuracy(montecarlo.AccuracyConfig{
			Distance: m.d, P: m.p, Trials: trials, Seed: seed, Workers: workers(),
			New: func(g *lattice.Graph) montecarlo.Decoder {
				return core.NewDecoder(g, core.Options{LeanStats: true})
			},
			DisableTriage: true,
		})
		refs = append(refs, referenceRate{Distance: m.d, P: m.p, Trials: r.Trials, Failures: r.Failures, Seed: seed})
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
