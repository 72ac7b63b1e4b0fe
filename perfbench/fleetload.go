package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"afs/internal/compress"
	"afs/internal/fleet"
	"afs/internal/lattice"
	"afs/internal/stream"
)

// fleetParams is the fleet-steady workload: a fleet.Router in this process
// routes every stream's rounds to shard processes over Unix sockets.
type fleetParams struct {
	streams, d, shards int
	p                  float64
	poolRounds         int
	// rate is the named open-loop rate (fleet rounds per second; each round
	// carries one round of every stream) at which a traced run reports
	// round→correction latency.
	rate float64
	// ladder lists the open-loop rates of the traced run's sustained-rate
	// search, and latencyLimitUS its p99 limit.
	ladder         []float64
	latencyLimitUS float64
}

// fleetSteady runs one shard, so the router and the shard can have a CPU
// each on the 2-vCPU reference host. With two shards, three busy processes
// shared two CPUs and where the scheduler put them set the closed-loop
// figures.
var fleetSteady = fleetParams{
	streams: 64, d: 5, shards: 1, p: 0.01, poolRounds: 4096,
	rate:           2000,
	ladder:         []float64{2000, 3000, 4000, 6000},
	latencyLimitUS: 2000,
}

func (f fleetParams) sized(quick bool) fleetParams {
	if quick {
		f.streams, f.poolRounds, f.rate = 8, 256, 500
		f.ladder = []float64{500, 1000}
	}
	return f
}

// serveShard runs one decode shard on a Unix socket until killed. It
// prints "ready" once listening so the parent knows it can dial.
func serveShard(path string) error {
	os.Remove(path) // a stale socket from a killed run
	ln, err := net.Listen("unix", path)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	return fleet.Serve(ln, fleet.ShardConfig{})
}

// shardProc is one spawned shard process.
type shardProc struct {
	cmd  *exec.Cmd
	path string
}

// spawnShards starts n shard processes of this binary and waits until each
// listens. The shards die with this process (Pdeathsig) if it is killed.
func spawnShards(n int) ([]*shardProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	var procs []*shardProc
	for i := 0; i < n; i++ {
		path := filepath.Join(buildDir, fmt.Sprintf("s%d-%d.sock", os.Getpid(), i))
		cmd := exec.Command(self, "--shard", path)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			stopShards(procs)
			return nil, fmt.Errorf("start shard: %w", err)
		}
		procs = append(procs, &shardProc{cmd, path})
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil || strings.TrimSpace(line) != "ready" {
			stopShards(procs)
			return nil, fmt.Errorf("shard %d did not start: %q %v", i, line, err)
		}
	}
	return procs, nil
}

// stopShards kills the shards and waits for each to exit.
func stopShards(procs []*shardProc) {
	for _, p := range procs {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		os.Remove(p.path)
	}
}

func shardAddrs(procs []*shardProc) []string {
	var out []string
	for _, p := range procs {
		out = append(out, p.path)
	}
	return out
}

// probeFleetSetup times shard start-up, dial and stream placement.
func probeFleetSetup(c *runCtx) (float64, error) {
	prm := fleetSteady.sized(c.quick)
	t0 := time.Now()
	procs, err := spawnShards(prm.shards)
	if err != nil {
		return 0, err
	}
	defer stopShards(procs)
	r, err := fleet.Dial(fleet.Config{Network: "unix", Shards: shardAddrs(procs), Streams: prm.streams, Distance: prm.d,
		Sink: func(int, stream.Correction) {}})
	s := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	r.Close()
	return s, nil
}

// fleetFor is the fleet run's measured time. A traced run splits the same
// time between its open-loop rungs and the closed loop instead of adding
// an untraced half.
func (c *runCtx) fleetFor() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// refStride spaces the streams the in-process reference re-decodes.
const refStride = 4

// minBatches is the fewest closed-loop batches a run measures.
const minBatches = 20

// rung is one open-loop phase: rounds sent at a fixed rate.
type rung struct {
	first, count int // round range
	traced       bool
}

// schedule fixes every open-loop round's due time (ns after the schedule
// starts) before anything is sent.
type schedule struct {
	rungs []rung
	due   []int64
}

func newSchedule(rates []float64, d time.Duration, traced []bool) *schedule {
	s := &schedule{}
	var at float64
	for j, rate := range rates {
		n := int(rate * d.Seconds())
		rg := rung{first: len(s.due), count: n, traced: traced[j]}
		period := 1e9 / rate
		for k := 0; k < n; k++ {
			s.due = append(s.due, int64(at))
			at += period
		}
		s.rungs = append(s.rungs, rg)
	}
	return s
}

// rungOf returns the rung index of open-loop round r, or -1.
func (s *schedule) rungOf(r int) int {
	for j, rg := range s.rungs {
		if r >= rg.first && r < rg.first+rg.count {
			return j
		}
	}
	return -1
}

// fleetSink receives corrections from the router's reader goroutines
// (serialised under the router's lock): it digests each stream's sequence
// for the output check and, for windows closed by an open-loop round,
// records the latency from that round's due time.
type fleetSink struct {
	sched   *schedule
	startNS atomic.Int64 // schedule origin (nowNS), 0 until the schedule starts
	window  int
	commit  int
	digests []corrDigest
	latUS   [][]float64 // per rung
	early   int64       // corrections received before their window's round was due
	lastNS  atomic.Int64
}

func (s *fleetSink) add(i int, c stream.Correction) {
	s.lastNS.Store(nowNS())
	s.digests[i].add(c)
	// Window k commits layers [kC, kC+C) and is closed by round W-1+kC.
	k := c.Round / s.commit
	r := s.window - 1 + k*s.commit
	if r >= len(s.sched.due) {
		return
	}
	j := s.sched.rungOf(r)
	if j < 0 {
		return
	}
	lat := float64(nowNS()-s.startNS.Load()-s.sched.due[r]) / 1e3
	if lat < 0 {
		s.early++
	}
	s.latUS[j] = append(s.latUS[j], lat)
}

// quietNS is how long no correction may arrive before the shards count as
// drained: at saturation every shard emits corrections every few
// microseconds, and a shard's socket backlog drains within milliseconds.
const quietNS = 5e6

// awaitQuiet returns once no correction has arrived for quietNS, or after a
// second at most.
func (s *fleetSink) awaitQuiet() {
	for deadline := nowNS() + 1e9; nowNS() < deadline; {
		if nowNS()-s.lastNS.Load() >= quietNS {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// rungStats is what the open-loop generator observed in one rung.
type rungStats struct {
	lagUS      []float64
	backlogMax int
	backlogEnd int
	routeNS    float64 // summed RunRounds time
}

func runFleet(c *runCtx) error {
	prm := fleetSteady.sized(c.quick)
	if err := c.measureSetup(); err != nil {
		return err
	}
	t0 := time.Now()
	pool := genRounds(prm.streams, prm.d, prm.p, prm.poolRounds, c.seed)
	c.set("loadgen.gen_s", time.Since(t0).Seconds())

	// Open-loop rungs, traced runs only: the named rate with spans, then
	// the ladder. Untraced runs spend all their time in the closed loop.
	satTime := c.fleetFor()
	var rates []float64
	sched := &schedule{}
	if c.traced {
		satTime = c.fleetFor() * 4 / 10
		rates = append([]float64{prm.rate}, prm.ladder...)
		traced := make([]bool, len(rates))
		traced[0] = true
		sched = newSchedule(rates, c.fleetFor()*6/10/time.Duration(len(rates)), traced)
	}

	window := prm.d
	sink := &fleetSink{sched: sched, window: window, commit: window / 2,
		digests: make([]corrDigest, prm.streams), latUS: make([][]float64, len(rates))}

	procs, err := spawnShards(prm.shards)
	if err != nil {
		return err
	}
	defer stopShards(procs)
	td := time.Now()
	router, err := fleet.Dial(fleet.Config{Network: "unix", Shards: shardAddrs(procs), Streams: prm.streams, Distance: prm.d,
		Sink: sink.add})
	if err != nil {
		return err
	}
	defer router.Close()
	c.set("fleet.dial_s", time.Since(td).Seconds())

	feedRound := 0
	feed := func(i, r int) []int32 { return pool.round(feedRound + r)[i] }

	// Open loop: every round is due at its scheduled time whether or not
	// the fleet kept up; a late generator sends immediately and the lag
	// counts in the latency.
	var ms memStats
	tx0, rx0 := router.WireBytes()
	stats := make([]rungStats, len(rates))
	log := &spanLog{}
	ms.start()
	start := nowNS()
	sink.startNS.Store(start)
	for r := range sched.due {
		j := sched.rungOf(r)
		rg := sched.rungs[j]
		st := &stats[j]
		w0 := nowNS()
		waitUntil(start + sched.due[r])
		a := nowNS()
		st.lagUS = append(st.lagUS, float64(a-start-sched.due[r])/1e3)
		// Backlog: rounds already due but not yet sent.
		backlog := 0
		for k := r + 1; k < len(sched.due) && sched.due[k] <= a-start; k++ {
			backlog++
		}
		if backlog > st.backlogMax {
			st.backlogMax = backlog
		}
		if r == rg.first+rg.count-1 {
			st.backlogEnd = backlog
		}
		feedRound = r
		err := router.RunRounds(1, feed)
		b := nowNS()
		c.ops(int64(prm.streams))
		c.op(err)
		st.routeNS += float64(b - a)
		if rg.traced {
			log.add("loadgen.wait", -1, int64(r), w0, a)
			log.add("fleet.route", -1, int64(r), a, b)
		}
		if err != nil {
			return err
		}
	}
	ms.stop()
	olRounds := len(sched.due)
	tx1, rx1 := router.WireBytes()

	// Closed-loop saturation: rounds in batches as fast as the router
	// accepts them (socket back-pressure bounds the backlog), then Flush
	// waits until the shards have decoded everything.
	meter := c.newSpeedMeter()
	cpu0, shardCPU0 := selfCPUSeconds(), shardsCPU(procs)
	s0 := time.Now()
	next := olRounds
	const batch = 512
	batches := newSamples(true, 1<<12)
	// A batch's cost is the CPU time the router and the shard spent from
	// the end of the previous batch to the end of this one (the shard's
	// drain before a probe included), not its wall time: when the shared
	// host is busy, the wall time of this socket ping-pong between two
	// processes doubled in some runs while the probe moved by a third, but
	// the CPU time the fleet spends per round follows the probe.
	procIDs := []int{os.Getpid()}
	for _, p := range procs {
		procIDs = append(procIDs, p.cmd.Process.Pid)
	}
	cpuPrev := cpuNS(procIDs)
	for time.Since(s0) < satTime || batches.len() < minBatches {
		if meter.due() {
			// Let the shards drain what was sent, so the calibration kernel
			// runs alone.
			sink.awaitQuiet()
		}
		slot := meter.tick()
		feedRound = next
		err := router.RunRounds(batch, feed)
		cpu := cpuNS(procIDs)
		batches.add(cpu-cpuPrev, slot)
		cpuPrev = cpu
		c.ops(int64(prm.streams * batch))
		c.op(err)
		if err != nil {
			return err
		}
		next += batch
	}
	c.op(router.Flush())
	meter.probe()
	satWall := time.Since(s0).Seconds()
	satRounds := next - olRounds
	cpu1, shardCPU1 := selfCPUSeconds(), shardsCPU(procs)
	// Under socket back-pressure the router accepts rounds at the rate the
	// shard decodes them, so a batch's cost is the fleet's CPU cost for one
	// round of every stream, batch rounds deep.
	if err := c.setTimings(meter, batches, float64(batch*prm.streams), batches); err != nil {
		return err
	}
	if router.Recoveries() != 0 {
		c.op(fmt.Errorf("%d shard recoveries in a fault-free run", router.Recoveries()))
	}

	c.notef("saturation: %d rounds x %d streams in %.2fs, %d batches (latency samples)", satRounds, prm.streams, satWall, batches.len())

	// Output check: the same rounds through an in-process stream.Engine
	// give byte-identical corrections. Every refStride-th stream is
	// checked, which keeps the reference pass short next to the run.
	var refIDs []int
	for i := 0; i < prm.streams; i += refStride {
		refIDs = append(refIDs, i)
	}
	ref := make([]corrDigest, len(refIDs))
	eng, err := stream.NewEngine(stream.EngineConfig{Streams: len(refIDs), Distance: prm.d, Workers: workers(),
		Sink: func(i int, corr stream.Correction) { ref[i].add(corr) }})
	if err != nil {
		return err
	}
	defer eng.Close()
	total := next
	tr := time.Now()
	rounds := make([][][]int32, batch)
	for r := 0; r < total; r += batch {
		n := batch
		if total-r < n {
			n = total - r
		}
		for k := 0; k < n; k++ {
			full := pool.round(r + k)
			rounds[k] = rounds[k][:0]
			for _, i := range refIDs {
				rounds[k] = append(rounds[k], full[i])
			}
		}
		if err := eng.PushRounds(rounds[:n]); err != nil {
			return err
		}
	}
	if err := eng.Flush(); err != nil {
		return err
	}
	refWall := time.Since(tr)
	// The router's lock orders the sink's writes before Flush returned.
	got := make([]corrDigest, len(refIDs))
	for k, i := range refIDs {
		got[k] = sink.digests[i]
	}
	c.check("fleet_matches_inprocess", checkDigestsEqual(got, ref))
	var pids []int
	for _, p := range procs {
		pids = append(pids, p.cmd.Process.Pid)
	}
	if err := c.setPeakRSS(pids...); err != nil {
		return err
	}
	if !c.traced {
		return nil
	}

	var early error
	if sink.early > 0 {
		early = fmt.Errorf("%d corrections arrived before their window's closing round was due", sink.early)
	}
	c.check("correction_after_due", early)
	named := sink.latUS[0]
	if len(named) == 0 {
		return fmt.Errorf("no latency samples at the named rate")
	}
	c.notef("named rate %.0f rounds/s x %d streams: %d latency samples, backlog max %d rounds",
		prm.rate, prm.streams, len(named), stats[0].backlogMax)
	c.set("fleet.open_loop_p50_us", quantile(named, 0.5))
	c.set("fleet.open_loop_p99_us", quantile(named, 0.99))
	streamRounds := float64(olRounds * prm.streams)
	c.setRuntime(&ms, streamRounds)
	c.set("loadgen.latency_samples", float64(len(named)))
	c.set("loadgen.lag_p99_us", quantile(stats[0].lagUS, 0.99))
	c.set("fleet.backlog_rounds_max", float64(stats[0].backlogMax))
	c.set("fleet.wire_tx_bytes_per_round", float64(tx1-tx0)/streamRounds)
	c.set("fleet.wire_rx_bytes_per_round", float64(rx1-rx0)/streamRounds)
	c.set("fleet.router_busy_frac", (cpu1-cpu0)/satWall)
	c.set("fleet.shard_busy_frac", (shardCPU1-shardCPU0)/satWall/float64(prm.shards))
	c.set("fleet.router_ns_per_round", stats[0].routeNS/float64(sched.rungs[0].count*prm.streams))
	windows := 0
	for r := 0; r < total; r++ {
		if r >= window-1 && (r-(window-1))%(window/2) == 0 {
			windows += len(refIDs)
		}
	}
	c.set("fleet.inproc_window_ns", float64(refWall.Nanoseconds())/float64(windows))
	c.set("trace.overhead_frac", 2*clockReadNS()*float64(len(log.spans))/float64(sched.rungs[0].count)*prm.rate/1e9)
	sustained := 0.0
	for j := 1; j < len(rates); j++ {
		lat := sink.latUS[j]
		// A rung is sustained when its p99 meets the limit and the generator
		// ends it caught up (a growing backlog leaves rounds still due).
		ok := len(lat) > 0 && quantile(lat, 0.99) <= prm.latencyLimitUS && stats[j].backlogEnd <= 2
		c.notef("ladder %.0f rounds/s: p99 %.0f us, backlog max %d end %d, ok %v",
			rates[j], quantile(lat, 0.99), stats[j].backlogMax, stats[j].backlogEnd, ok)
		if ok {
			sustained = rates[j] * float64(prm.streams)
		}
	}
	c.set("fleet.ladder_sustained_per_s", sustained)
	setCompressMetrics(c, pool, prm.d)
	c.set("lattice.graph_build_ms", timeGraphBuild(func() { lattice.New3DWindow(prm.d, prm.d) }))
	c.spans.merge(log)
	return nil
}

// waitUntil returns at monotonic time due (nowNS). It sleeps in a
// nanosleep system call: time.Sleep parks on the runtime's network
// poller, whose timeout has millisecond granularity, so sub-millisecond
// round periods would be rounded up to a millisecond.
func waitUntil(due int64) {
	if d := due - nowNS(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// cpuNS sums the CPU time of every thread of the processes pids, in ns,
// from the scheduler's per-thread accounting (/proc/<pid>/task/<tid>/schedstat).
func cpuNS(pids []int) float64 {
	sum := 0.0
	for _, pid := range pids {
		dir := fmt.Sprintf("/proc/%d/task", pid)
		tasks, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, t := range tasks {
			b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
			if err != nil {
				continue // the thread exited
			}
			if f := strings.Fields(string(b)); len(f) > 0 {
				ns, _ := strconv.ParseFloat(f[0], 64)
				sum += ns
			}
		}
	}
	return sum
}

// shardsCPU sums the shard processes' CPU seconds.
func shardsCPU(procs []*shardProc) float64 {
	sum := 0.0
	for _, p := range procs {
		s, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return math.NaN()
		}
		sum += s
	}
	return sum
}

// setCompressMetrics times the §VII round-frame codec on the workload's own
// rounds: one frame per stream-round, encoded then decoded.
func setCompressMetrics(c *runCtx, pool roundPool, d int) {
	per := d * (d - 1)
	var buf []byte
	var out []int32
	var bytes, n int
	var enc, dec int64
	for r := range pool {
		for _, ev := range pool[r] {
			a := nowNS()
			buf = compress.AppendRoundFrame(buf[:0], uint32(r), ev, per)
			b := nowNS()
			_, got, err := compress.DecodeRoundFrame(buf, per, out)
			e := nowNS()
			out = got
			if err == nil && len(got) != len(ev) {
				err = fmt.Errorf("frame round-trip: %d events, sent %d", len(got), len(ev))
			}
			c.op(err)
			enc += b - a
			dec += e - b
			bytes += len(buf)
			n++
		}
	}
	c.set("compress.frame_encode_ns", float64(enc)/float64(n))
	c.set("compress.frame_decode_ns", float64(dec)/float64(n))
	c.set("compress.frame_bytes", float64(bytes)/float64(n))
}
