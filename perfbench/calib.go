package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Host-speed calibration. The reference host is a virtual machine on a
// shared host whose speed drifts by a third within minutes, with no steal
// time to show for it: other tenants share the physical cores and the
// memory system. Two fixed reference kernels, run between the measured
// operations, slow down with the host but not with the program, so
// dividing each operation's time by the kernels' time at that moment
// cancels the drift while a change in the program still moves the result
// in full.
//
// One kernel is integer arithmetic with an unpredictable branch (it tracks
// how fast the cores run), the other random read-modify-writes over a
// table far larger than the caches (it tracks the memory system). Over a
// 90 s stream-design run on the reference host the workload's time drifted
// with a coefficient of variation of 0.23 across 6 s bins; scaled by the
// compute kernel alone it still varied 0.11, by the memory kernel alone
// 0.05, by their geometric mean 0.06. On mc-heavy the same figures were
// 0.15, 0.08, 0.08 and 0.03. The geometric mean is the probe. It does not
// follow how late a sleeping CPU wakes up, which the fleet's batches and
// the stream engine's ticks also wait on (README.md).

const (
	// aluWork and memWork are the kernels' iteration counts: each runs
	// about 1 ms on the reference host.
	aluWork = 100_000
	memWork = 5_000
	// memTableLen sizes each worker's table: 16 MiB.
	memTableLen = 1 << 22
	// calibReps is how many runs of each kernel make one probe; a kernel's
	// time is the median of its runs.
	calibReps = 3
)

// calibRefNS is the probe's value on a nominal host. Timings are reported
// scaled to that host: a timing t taken while the probe read k ns is
// reported as t * calibRefNS / k.
const calibRefNS = 1e6

// aluKernel is the compute reference: an xorshift sequence and per step a
// branch on its low bit (taken at random) choosing an add or a multiply.
func aluKernel(n int) uint32 {
	x, acc := uint32(2463534242), uint32(1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if (x^acc)&1 == 0 {
			acc += x
		} else {
			acc ^= x * 2654435761
		}
	}
	return acc
}

// memKernel is the memory reference: dependent random read-modify-writes
// over tab.
func memKernel(tab []uint32, n int) uint32 {
	x, acc := uint32(2463534242), uint32(1)
	mask := uint32(len(tab) - 1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := (x ^ acc) & mask
		v := tab[j]
		acc += v
		tab[j] = v + acc
	}
	return acc
}

// kernelSink keeps the kernels' results live.
var kernelSink atomic.Uint32

// onEveryCPU runs f on every CPU at once, one goroutine pinned to each (as
// the workloads use every CPU), and returns each CPU's result. Pinning
// keeps two runs from sharing a CPU; the CPUs of one host run at different
// speeds from moment to moment (by up to a quarter on the reference host),
// and the probe is their mean.
func onEveryCPU(f func(i int) float64) ([]float64, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(cpus))
	errs := make([]error, len(cpus))
	var wg sync.WaitGroup
	for i, cpu := range cpus {
		wg.Add(1)
		go func(i, cpu int) {
			defer wg.Done()
			// The goroutine ends locked to its thread, so the Go runtime
			// retires the pinned thread with it.
			runtime.LockOSThread()
			if errs[i] = setAffinity(syscall.Gettid(), cpu); errs[i] == nil {
				out[i] = f(i)
			}
		}(i, cpu)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// kernelNS is the median time of calibReps runs of kernel, in ns.
func kernelNS(kernel func() uint32) float64 {
	xs := make([]float64, calibReps)
	for i := range xs {
		t0 := nowNS()
		kernelSink.Add(kernel())
		xs[i] = float64(nowNS() - t0)
	}
	return median(xs)
}

// serveSpeedProbe is the calibration process: it answers every line on
// standard input with one probe, in ns, until standard input closes. It
// runs apart from the measured process so that its tables do not count in
// the workload's resident set.
func serveSpeedProbe(in io.Reader, out io.Writer) error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	tabs := make([][]uint32, len(cpus))
	for cpu := range tabs {
		tabs[cpu] = make([]uint32, memTableLen)
		for j := range tabs[cpu] {
			tabs[cpu][j] = uint32(j)*2654435761 + uint32(cpu)
		}
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		probes, err := onEveryCPU(func(i int) float64 {
			alu := kernelNS(func() uint32 { return aluKernel(aluWork) })
			mem := kernelNS(func() uint32 { return memKernel(tabs[i], memWork) })
			return math.Sqrt(alu * mem)
		})
		if err != nil {
			return err
		}
		sum := 0.0
		for _, p := range probes {
			sum += p
		}
		if _, err := fmt.Fprintf(out, "%v\n", sum/float64(len(probes))); err != nil {
			return err
		}
	}
	return sc.Err()
}

// speedProbe is a running calibration process.
type speedProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startSpeedProbe starts the calibration process (this binary with
// --speed-probe). It dies with this process (Pdeathsig) if it is killed.
func startSpeedProbe() (*speedProbe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--speed-probe")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start speed probe: %w", err)
	}
	return &speedProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// probe asks for one probe and returns it in ns.
func (p *speedProbe) probe() (float64, error) {
	if _, err := io.WriteString(p.in, "\n"); err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	ns, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	return ns, nil
}

// stop ends the calibration process and waits for it.
func (p *speedProbe) stop() {
	p.in.Close()
	if err := p.cmd.Wait(); err != nil {
		p.cmd.Process.Kill()
	}
}

// speedMeter takes probes between a measured loop's operations, at most
// every meterInterval, and scales the loop's samples by them.
type speedMeter struct {
	p      *speedProbe
	last   time.Time
	probes []float64 // probe ns at each probe point
	err    error     // the first failed probe
}

// meterInterval spaces the probes: about 2.5% of a run's time.
const meterInterval = 250 * time.Millisecond

// meterSpan is how many probes on each side of a slot its scale is taken
// from: the median over about 1.5 s smooths out the probes' own noise
// while following the host's drift within a run.
const meterSpan = 3

func (c *runCtx) newSpeedMeter() *speedMeter {
	m := &speedMeter{p: c.speed}
	m.probe()
	return m
}

func (m *speedMeter) probe() {
	ns, err := m.p.probe()
	if err != nil {
		if m.err == nil {
			m.err = err
		}
		ns = math.NaN()
	}
	m.probes = append(m.probes, ns)
	m.last = time.Now()
}

// due reports whether the next tick will probe. A loop whose operations
// leave work running in the background (the fleet's shards) lets it finish
// first, so the kernels never compete with the program.
func (m *speedMeter) due() bool { return time.Since(m.last) >= meterInterval }

// tick probes when due and returns the slot of the next sample: the
// samples between probe k and probe k+1 are slot k. Call it between
// operations, outside the timed region.
func (m *speedMeter) tick() int32 {
	if m.due() {
		m.probe()
	}
	return int32(len(m.probes) - 1)
}

// factor is the scale for samples of slot k: calibRefNS over the median
// of the probes within meterSpan of the slot.
func (m *speedMeter) factor(k int32) float64 {
	lo := max(int(k)+1-meterSpan, 0)
	hi := min(int(k)+1+meterSpan, len(m.probes))
	return calibRefNS / median(append([]float64(nil), m.probes[lo:hi]...))
}

// scale returns factor as a lookup over the slots probed so far; call it
// once the loop has taken its closing probe.
func (m *speedMeter) scale() func(int32) float64 {
	f := make([]float64, len(m.probes))
	for k := range f {
		f[k] = m.factor(int32(k))
	}
	return func(k int32) float64 { return f[k] }
}

// medianProbe is the host's speed over the run.
func (m *speedMeter) medianProbe() float64 {
	return median(append([]float64(nil), m.probes...))
}

// runFactor scales a whole phase's timings at once: calibRefNS over the
// median probe. The traced phases use it, so that closure compares the
// untraced and traced halves of a run at the same nominal speed however
// the host drifted between them.
func (m *speedMeter) runFactor() float64 { return calibRefNS / m.medianProbe() }

// samples are a loop's timed operations: per meter slot their count and
// summed time, and, when kept, each operation's time in ns and its slot.
type samples struct {
	keep bool
	ns   []float64
	slot []int32
	sum  []float64 // per slot
	n    []int     // per slot
}

// newSamples returns a sample set; keep makes it keep every sample (for
// percentiles), with room for capacity of them.
func newSamples(keep bool, capacity int) *samples {
	s := &samples{keep: keep}
	if keep {
		s.ns, s.slot = make([]float64, 0, capacity), make([]int32, 0, capacity)
	}
	return s
}

func (s *samples) add(ns float64, slot int32) {
	for int(slot) >= len(s.sum) {
		s.sum = append(s.sum, 0)
		s.n = append(s.n, 0)
	}
	s.sum[slot] += ns
	s.n[slot]++
	if s.keep {
		s.ns = append(s.ns, ns)
		s.slot = append(s.slot, slot)
	}
}

func (s *samples) len() int {
	total := 0
	for _, n := range s.n {
		total += n
	}
	return total
}

// rate is units per operation over the mean operation time, scaled by
// factor: a throughput in units per second.
func (s *samples) rate(units float64, factor func(int32) float64) float64 {
	total := 0.0
	for k, sum := range s.sum {
		if s.n[k] > 0 {
			total += sum * factor(int32(k))
		}
	}
	return units * float64(s.len()) / total * 1e9
}

// quantileUS is the q-quantile of the kept samples scaled by factor, in
// microseconds.
func (s *samples) quantileUS(q float64, factor func(int32) float64) float64 {
	xs := make([]float64, len(s.ns))
	for i, x := range s.ns {
		xs[i] = x * factor(s.slot[i])
	}
	return quantile(xs, q) / 1e3
}

func unscaled(int32) float64 { return 1 }

// setTimings reports the end-to-end metrics of a measured loop, scaled to
// the nominal host: throughput from ops (units each), latency percentiles
// from lat (the same samples or a subset). It notes the unscaled figures
// and the host's speed beside them.
func (c *runCtx) setTimings(m *speedMeter, ops *samples, units float64, lat *samples) error {
	if m.err != nil {
		return m.err
	}
	f := m.scale()
	c.set(mThroughput, ops.rate(units, f))
	c.set(mLatP50, lat.quantileUS(0.5, f))
	c.set(mLatTail, lat.quantileUS(0.9, f))
	c.notef("unscaled: throughput %.6g/s, latency p50 %.6g us, p90 %.6g us; speed probe %.0f ns (nominal %.0f) over %d probes",
		ops.rate(units, unscaled), lat.quantileUS(0.5, unscaled), lat.quantileUS(0.9, unscaled), m.medianProbe(), calibRefNS, len(m.probes))
	return nil
}
