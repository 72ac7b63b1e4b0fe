// Command perfbench is the repository's benchmark: four named workloads run
// through the public entry points of the afs facade and the montecarlo,
// stream and fleet packages, with output checks, end-to-end metrics (trace
// 0) and per-layer metrics from a separate traced run (trace 1). See
// README.md for the workloads, the metric table and how to read a trace.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when an
// output check fails or the run cannot be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named input set. run measures it; probeSetup performs its
// set-up once in a fresh process and returns the seconds it took.
type workload struct {
	name       string
	run        func(c *runCtx) error
	probeSetup func(c *runCtx) (float64, error)
}

// workloads lists the benchmark's workloads; BENCHMARK.json and README.md
// say why each exists.
var workloads = []workload{
	{"mc-design", runMCDesign, probeMCSetup(mcDesign)},
	{"mc-heavy", runMCHeavy, probeMCSetup(mcHeavy)},
	{"stream-design", runStream, probeStreamSetup},
	{"fleet-steady", runFleet, probeFleetSetup},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name      = flag.String("workload", "", "workload name, or \"all\" to run every workload in turn")
		seed      = flag.Uint64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 10, "measured seconds per run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		quick     = flag.Bool("quick", false, "toy-size inputs, for the benchmark's own tests")
		probe     = flag.Bool("probe-setup", false, "internal: perform the workload's set-up once and print its duration")
		shard     = flag.String("shard", "", "internal: serve a fleet shard on this Unix socket path")
		speed     = flag.Bool("speed-probe", false, "internal: serve host-speed probes on standard input and output")
		calibrate = flag.Bool("calibrate", false, "measure the mc-heavy reference rates with triage disabled and print reference.json")
	)
	flag.Parse()
	switch {
	case *shard != "":
		if err := serveShard(*shard); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench shard:", err)
			return 1
		}
		return 0
	case *speed:
		if err := serveSpeedProbe(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench speed probe:", err)
			return 1
		}
		return 0
	case *calibrate:
		if err := calibrateReference(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	var list []workload
	if *name == "all" {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	code := 0
	for _, w := range list {
		c := newRunCtx(w.name, *seed, *seconds, *trace == 1, *quick)
		if *probe {
			s, err := w.probeSetup(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
				return 1
			}
			fmt.Printf("{\"setup_s\": %v}\n", s)
			continue
		}
		if err := runOne(w, c, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if !c.correct() {
			code = 1
		}
	}
	return code
}

// runOne measures one workload and prints its report.
func runOne(w workload, c *runCtx, out io.Writer) error {
	c.host = fingerprint()
	speed, err := startSpeedProbe()
	if err != nil {
		return err
	}
	c.speed = speed
	err = w.run(c)
	speed.stop()
	if err != nil {
		return err
	}
	c.host.finish()
	if c.traced {
		if err := c.writeTrace(); err != nil {
			return err
		}
	}
	return c.print(out)
}

// runCtx carries one run's parameters and accumulates its report.
type runCtx struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	quick    bool

	attempted, failed int64
	checks            []checkResult
	metrics           map[string]metricValue
	notes             []string
	host              *host
	spans             *spanLog
	speed             *speedProbe // host-speed calibration process
}

type checkResult struct {
	Name  string
	OK    bool
	Error string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRunCtx(name string, seed uint64, seconds float64, traced, quick bool) *runCtx {
	return &runCtx{
		workload: name,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		quick:    quick,
		metrics:  map[string]metricValue{},
		spans:    &spanLog{},
	}
}

// op counts one attempted operation of the system under test; a non-nil
// error counts it as failed.
func (c *runCtx) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.notef("operation failed: %v", err)
	}
}

// ops counts n attempted operations that a following op call reports on
// as a whole (a routed batch of stream-rounds).
func (c *runCtx) ops(n int64) { c.attempted += n }

// check records one output check; a failing check counts as a failed
// operation and makes the run incorrect.
func (c *runCtx) check(name string, err error) {
	r := checkResult{Name: name, OK: err == nil}
	if err != nil {
		r.Error = err.Error()
	}
	c.checks = append(c.checks, r)
	c.op(err)
}

// correct reports whether the run checked its outputs and nothing failed
// (a failed check also counts as a failed operation).
func (c *runCtx) correct() bool { return c.failed == 0 && len(c.checks) > 0 }

func (c *runCtx) set(name string, v float64) {
	unit, ok := metricUnit(name)
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	c.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (c *runCtx) notef(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// measureFor is the measured duration of a run, split evenly between the
// untraced and traced halves of a traced run.
func (c *runCtx) measureFor() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.traced {
		d /= 2
	}
	return d
}

// print writes the human-readable lines and then the result object as the
// last line.
func (c *runCtx) print(w io.Writer) error {
	hostJSON, err := json.Marshal(c.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v quick %v\n", c.workload, c.seed, c.seconds, c.traced, c.quick)
	fmt.Fprintf(w, "# host %s\n", hostJSON)
	for _, ch := range c.checks {
		status := "ok"
		if !ch.OK {
			status = "FAILED: " + ch.Error
		}
		fmt.Fprintf(w, "# check %s %s\n", ch.Name, status)
	}
	for _, n := range c.notes {
		fmt.Fprintf(w, "# note %s\n", n)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{c.correct(), c.attempted, c.failed, c.reported()}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "# metric %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// reported returns the metric set the run must print: every end-to-end
// metric untraced, every per-layer metric traced. A per-layer metric the
// workload does not exercise reads 0 (README.md lists which workload
// measures which metric).
func (c *runCtx) reported() map[string]metricValue {
	list := endToEnd
	if c.traced {
		list = perLayer
	}
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := c.metrics[m.name]
		if !ok {
			v = metricValue{0, m.unit}
		}
		out[m.name] = v
	}
	return out
}

// buildDir is where runs keep sockets and trace files: the same ignored
// directory the wrapper builds into, relative to the checkout root.
const buildDir = ".bench_build"

func (c *runCtx) writeTrace() error {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, c.workload+".spans.jsonl")
	if err := c.spans.write(path, c); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	c.notef("spans written to %s (%d spans)", path, c.spans.len())
	return nil
}

// workers is the benchmark's parallelism: one worker per CPU, as the
// workloads' contract fixes (at most nproc goroutines doing decode work).
func workers() int { return runtime.NumCPU() }
