package main

import (
	"fmt"
	"runtime"
	"time"

	"afs/internal/lattice"
	"afs/internal/noise"
	"afs/internal/stream"
)

// streamParams is the stream-design workload: L logical qubits decoded
// continuously by one stream.Engine, fed one fleet round per PushRound by a
// single caller (closed loop).
type streamParams struct {
	streams, d int
	p          float64
	// poolRounds is how many distinct rounds are generated per stream; the
	// caller cycles through them, so memory stays fixed however fast the
	// engine runs.
	poolRounds int
	// checked streams are re-decoded by stream.Baseline for the output check,
	// over their first checkRounds detector layers: a fixed span, so the
	// check's memory does not grow with the number of rounds a run pushes.
	checked     []int
	checkRounds int
}

var streamDesign = streamParams{streams: 256, d: 11, p: 1e-3, poolRounds: 2048, checked: []int{0, 85, 170, 255}, checkRounds: 16384}

func (s streamParams) sized(quick bool) streamParams {
	if quick {
		return streamParams{streams: 8, d: 5, p: 1e-3, poolRounds: 256, checked: []int{0, 7}, checkRounds: 1024}
	}
	return s
}

// roundPool is pre-generated input: rounds[r][i] holds stream i's detection
// events in round r. Every stream has its own seeded round sampler.
type roundPool [][][]int32

func genRounds(streams, d int, p float64, n int, seed uint64) roundPool {
	// All events go into one flat buffer and the rounds are views into it:
	// a few allocations instead of one per stream-round, so the pool's
	// footprint, and with it the process's peak memory, does not depend on
	// when the collector runs.
	var flat []int32
	off := make([]int, 0, n*streams+1)
	for i := 0; i < streams; i++ {
		s := noise.NewRoundSampler(d, p, seed, uint64(i))
		for r := 0; r < n; r++ {
			off = append(off, len(flat))
			flat = append(flat, s.SampleRound()...)
		}
	}
	off = append(off, len(flat))
	views := make([][]int32, n*streams)
	pool := make(roundPool, n)
	for r := range pool {
		pool[r] = views[r*streams : (r+1)*streams]
	}
	for i := 0; i < streams; i++ {
		for r := 0; r < n; r++ {
			k := i*n + r
			pool[r][i] = flat[off[k]:off[k+1]:off[k+1]]
		}
	}
	runtime.GC() // drop the buffer's growth copies before anything is timed
	return pool
}

// round returns the r-th round of the cycled input sequence.
func (p roundPool) round(r int) [][]int32 { return p[r%len(p)] }

func runStream(c *runCtx) error {
	prm := streamDesign.sized(c.quick)
	if err := c.measureSetup(); err != nil {
		return err
	}
	t0 := time.Now()
	pool := genRounds(prm.streams, prm.d, prm.p, prm.poolRounds, c.seed)
	c.set("loadgen.gen_s", time.Since(t0).Seconds())

	checked := make(map[int]*[]stream.Correction, len(prm.checked))
	for _, i := range prm.checked {
		checked[i] = new([]stream.Correction)
	}
	eng, err := stream.NewEngine(stream.EngineConfig{
		Streams: prm.streams, Distance: prm.d, Workers: workers(),
		// Calls for one stream are serialized and each checked stream owns
		// its slice, so the sink needs no lock.
		Sink: func(i int, corr stream.Correction) {
			if s := checked[i]; s != nil && corr.Round < prm.checkRounds {
				*s = append(*s, corr)
			}
		},
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	var ms memStats
	obs0, err := readObsCounters()
	if err != nil {
		return err
	}
	meter := c.newSpeedMeter()
	ms.start()
	run := pushRounds(c, eng, pool, c.measureFor(), meter)
	ms.stop()
	eng.FaultReport() // publishes the decoders' batched obs tallies
	obs1, err := readObsCounters()
	if err != nil {
		return err
	}

	if run.ticks.len() == 0 {
		return fmt.Errorf("no window-completing round in %d rounds", run.rounds)
	}
	if err := c.setTimings(meter, run.all, float64(prm.streams), run.ticks); err != nil {
		return err
	}
	c.notef("%d rounds x %d streams, %d window ticks (latency samples)", run.rounds, prm.streams, run.ticks.len())
	if err := c.setPeakRSS(); err != nil {
		return err
	}

	// Output check: the engine's committed corrections on the sampled
	// streams equal stream.Baseline's on the same rounds, for the layers
	// both have committed (the baseline is fed two windows past them).
	window := eng.Decoder(0).Window
	layers := min(prm.checkRounds, run.rounds-2*window)
	for _, i := range prm.checked {
		base, err := stream.NewBaseline(prm.d, 0, 0)
		if err != nil {
			return err
		}
		for r := 0; r < layers+2*window; r++ {
			if err := base.PushLayer(pool.round(r)[i]); err != nil {
				return err
			}
		}
		c.check(fmt.Sprintf("baseline_stream_%d", i), checkCorrectionsEqual(fmt.Sprintf("stream %d", i),
			correctionsBelow(*checked[i], layers), correctionsBelow(base.Committed(), layers)))
	}
	if !c.traced {
		return nil
	}

	stRounds := obs1["afs_stream_rounds_total"] - obs0["afs_stream_rounds_total"]
	windows := obs1["afs_stream_windows_total"] - obs0["afs_stream_windows_total"]
	c.setRuntime(&ms, float64(prm.streams*run.rounds))
	c.set("loadgen.latency_samples", float64(run.ticks.len()))
	if windows > 0 {
		c.set("stream.w0_window_frac", (obs1["afs_stream_w0_windows_total"]-obs0["afs_stream_w0_windows_total"])/windows)
	}
	if stRounds > 0 {
		c.set("stream.corrections_per_round", (obs1["afs_stream_corrections_total"]-obs0["afs_stream_corrections_total"])/stRounds)
	}
	c.set("lattice.graph_build_ms", timeGraphBuild(func() { lattice.New3DWindow(prm.d, prm.d) }))
	return tracedStream(c, prm, pool, run, meter.runFactor())
}

// correctionsBelow returns the corrections of detector layers below n.
func correctionsBelow(cs []stream.Correction, n int) []stream.Correction {
	var out []stream.Correction
	for _, c := range cs {
		if c.Round < n {
			out = append(out, c)
		}
	}
	return out
}

// pushRun summarises one closed-loop pass of PushRound calls.
type pushRun struct {
	rounds int
	wall   time.Duration // summed PushRound time
	all    *samples      // every PushRound's time, summed per meter slot
	ticks  *samples      // PushRound time of window-completing rounds, kept
}

// pushRounds feeds rounds for d, one PushRound per round.
func pushRounds(c *runCtx, eng *stream.Engine, pool roundPool, d time.Duration, meter *speedMeter) pushRun {
	// Only window ticks are kept, in slices sized up front: only the pages
	// written count in the resident set, and no growth copies are left for
	// the collector.
	run := pushRun{all: newSamples(false, 0), ticks: newSamples(true, 1<<19)}
	dec0 := eng.Decoder(0)
	start := time.Now()
	for r := 0; time.Since(start) < d || run.rounds < 2*dec0.Window; r++ {
		slot := meter.tick()
		events := pool.round(r)
		tick := dec0.Buffered()+1 >= dec0.Window
		t0 := nowNS()
		err := eng.PushRound(events)
		t1 := nowNS()
		c.op(err)
		dt := time.Duration(t1 - t0)
		run.rounds++
		run.wall += dt
		run.all.add(float64(dt), slot)
		if tick {
			run.ticks.add(float64(dt), slot)
		}
	}
	meter.probe()
	return run
}

// tracedStream times the layers under the engine. Per-stream decoders fed
// the same rounds serially give the ingest cost of a round and the decode
// cost of each window (a window round's PushLayer minus the ingest share);
// a traced engine pass gives the pool's dispatch cost per tick.
func tracedStream(c *runCtx, prm streamParams, pool roundPool, untraced pushRun, untracedScale float64) error {
	budget := c.measureFor() / 2
	meter := c.newSpeedMeter()

	t0 := time.Now()
	decs := make([]*stream.Decoder, prm.streams)
	for i := range decs {
		d, err := stream.New(prm.d, 0, 0)
		if err != nil {
			return err
		}
		decs[i] = d
	}
	newDecoderNS := float64(time.Since(t0).Nanoseconds()) / float64(prm.streams)

	var ingestNS, windowWork float64
	var ingestRounds, tickRounds int
	var windowNS []float64
	log := &spanLog{}
	start := time.Now()
	window := decs[0].Window
	for r := 0; r < untraced.rounds && (time.Since(start) < budget || r < 2*window); r++ {
		meter.tick()
		events := pool.round(r)
		if decs[0].Buffered()+1 < window {
			a := nowNS()
			for i, d := range decs {
				c.op(d.PushLayer(events[i]))
			}
			b := nowNS()
			log.add("stream.ingest", -1, int64(r), a, b)
			ingestNS += float64(b - a)
			ingestRounds++
			continue
		}
		root := log.add("stream.window_round", -1, int64(r), nowNS(), 0)
		for i, d := range decs {
			a := nowNS()
			c.op(d.PushLayer(events[i]))
			b := nowNS()
			log.add("stream.window", root, int64(r), a, b)
			windowNS = append(windowNS, float64(b-a))
			windowWork += float64(b - a)
		}
		log.spans[root].End = nowNS()
		tickRounds++
	}
	if ingestRounds == 0 || tickRounds == 0 {
		return fmt.Errorf("reference pass saw %d ingest and %d window rounds", ingestRounds, tickRounds)
	}
	perIngest := ingestNS / float64(ingestRounds*prm.streams)
	for i := range windowNS {
		windowNS[i] -= perIngest
	}

	// Traced engine pass on a fresh engine over the same rounds, a span per
	// PushRound. A window-completing round goes through RunRounds(1), which
	// dispatches the same one-round job PushRound would, with a feed that
	// stamps when a worker picks each stream up: the tick splits into
	// dispatch-in (call to first pick-up), the workers' decode phase (first
	// to last pick-up) and barrier-out (last pick-up to return, which
	// includes the last stream's own PushLayer).
	eng, err := stream.NewEngine(stream.EngineConfig{Streams: prm.streams, Distance: prm.d, Workers: workers(),
		Sink: func(int, stream.Correction) {}})
	if err != nil {
		return err
	}
	defer eng.Close()
	var events [][]int32
	picked := make([]int64, prm.streams)
	feed := func(i, _ int) []int32 {
		picked[i] = nowNS()
		return events[i]
	}
	dec0 := eng.Decoder(0)
	split := eng.Workers() > 1 // a one-worker engine ingests serially, no dispatch
	var tracedWall, dispatchNS float64
	var tracedRounds, tracedTicks int
	start = time.Now()
	for r := 0; time.Since(start) < budget || tracedRounds < 2*window; r++ {
		meter.tick()
		events = pool.round(r)
		tick := dec0.Buffered()+1 >= dec0.Window
		t0 := nowNS()
		var err error
		if tick && split {
			err = eng.RunRounds(1, feed)
		} else {
			err = eng.PushRound(events)
		}
		t1 := nowNS()
		c.op(err)
		tracedWall += float64(t1 - t0)
		tracedRounds++
		if !tick || !split {
			log.add("stream.ingest_round", -1, int64(r), t0, t1)
			continue
		}
		first, last := picked[0], picked[0]
		for _, t := range picked {
			first = min(first, t)
			last = max(last, t)
		}
		root := log.add("stream.tick", -1, int64(r), t0, t1)
		log.add("stream.dispatch_in", root, int64(r), t0, first)
		log.add("stream.workers", root, int64(r), first, last)
		log.add("stream.barrier_out", root, int64(r), last, t1)
		dispatchNS += float64(first-t0) + float64(t1-last)
		tracedTicks++
	}

	// Closure: the traced pass's spans tile each round (ingest rounds;
	// dispatch-in, workers and barrier-out of ticks), so their self times
	// per round are compared with the untraced engine's per-round time.
	// The serial reference says how much of the workers' phase is window
	// decode: parallel efficiency is the window work per worker over the
	// measured phase. Both halves are scaled to the nominal host (calib.go),
	// so the closure holds however the host's speed drifted between them.
	meter.probe()
	if meter.err != nil {
		return meter.err
	}
	scale := meter.runFactor()
	c.set("stream.new_decoder_ms", newDecoderNS*scale/1e6)
	c.set("stream.ingest_ns_per_round", perIngest*scale)
	c.set("stream.window_ns_p50", median(windowNS)*scale)
	c.set("stream.window_ns_p99", quantile(windowNS, 0.99)*scale)
	e2ePerRound := float64(untraced.wall.Nanoseconds()) / float64(untraced.rounds) * untracedScale
	agg := log.aggregate()
	var selfNS, workersNS float64
	for _, name := range []string{"stream.ingest_round", "stream.dispatch_in", "stream.workers", "stream.barrier_out"} {
		if t := agg[name]; t != nil {
			selfNS += t.SelfNS
		}
	}
	if t := agg["stream.workers"]; t != nil {
		workersNS = t.SelfNS
	}
	selfNS, workersNS, tracedWall, dispatchNS = selfNS*scale, workersNS*scale, tracedWall*scale, dispatchNS*scale
	gap := 1 - selfNS/float64(tracedRounds)/e2ePerRound
	perTickWork := windowWork * scale / float64(tickRounds) / float64(workers())
	c.set("trace.closure_gap_frac", gap)
	c.set("trace.overhead_frac", tracedWall/float64(tracedRounds)/e2ePerRound-1)
	if tracedTicks > 0 {
		c.set("stream.dispatch_ns_per_tick", dispatchNS/float64(tracedTicks))
		c.set("stream.parallel_efficiency", perTickWork/(workersNS/float64(tracedTicks)))
	}
	c.spans.merge(log)
	c.notef("closure: spans %.0f vs untraced %.0f ns per engine round (gap %.1f%%); per tick: window work per worker %.0f ns, workers phase %.0f ns, dispatch %.0f ns",
		selfNS/float64(tracedRounds), e2ePerRound, 100*gap, perTickWork, workersNS/float64(max(tracedTicks, 1)), dispatchNS/float64(max(tracedTicks, 1)))
	return nil
}

// probeStreamSetup times building the engine — its decoders and window
// graphs — in a fresh process.
func probeStreamSetup(c *runCtx) (float64, error) {
	prm := streamDesign.sized(c.quick)
	t0 := time.Now()
	eng, err := stream.NewEngine(stream.EngineConfig{Streams: prm.streams, Distance: prm.d, Workers: workers(),
		Sink: func(int, stream.Correction) {}})
	s := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	eng.Close()
	return s, nil
}
