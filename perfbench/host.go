package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// host is the fingerprint every result carries.
type host struct {
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go"`
	Commit      string `json:"commit"`
	SourceHash  string `json:"source_sha256"`
	LoadStart   string `json:"loadavg_start"`
	LoadEnd     string `json:"loadavg_end"`
	StartedUnix int64  `json:"started_unix"`
}

func fingerprint() *host {
	return &host{
		CPU:         cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      gitCommit(),
		SourceHash:  sourceHash("."),
		LoadStart:   loadavg(),
		StartedUnix: time.Now().Unix(),
	}
}

func (h *host) finish() { h.LoadEnd = loadavg() }

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// gitCommit names the checked-out commit when the run happens inside a git
// work tree; benchmark checkouts usually are not, and the source hash then
// identifies the code.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod under root (hidden
// directories such as .bench_build and .git skipped), so two results can
// be matched to the same code without git.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSeconds returns a process's user+system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return (ut + st) / clkTck, nil
}

// selfCPUSeconds is this process's CPU time at microsecond resolution.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupProbes bounds how many fresh processes a run starts to time set-up:
// at least minProbes, then more while the probes so far took less than
// setupBudget. A millisecond set-up (mc-*) varies by a third between
// probes, so it gets many; a 0.3 s one (stream-design) varies by a few
// percent and gets about ten.
func (c *runCtx) setupProbes() (minProbes, maxProbes int) {
	if c.quick {
		return 1, 1
	}
	return 9, 41
}

const setupBudget = 3 * time.Second

// measureSetup times the workload's set-up in fresh processes — so every
// sample pays the cold costs a user pays (graph construction, decoder
// allocation, shard start-up) — and reports the median, scaled to the
// nominal host by calibration probes taken between the set-up probes.
func (c *runCtx) measureSetup() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	meter := c.newSpeedMeter()
	minProbes, maxProbes := c.setupProbes()
	xs := newSamples(true, maxProbes)
	start := time.Now()
	for i := 0; i < maxProbes && (i < minProbes || time.Since(start) < setupBudget); i++ {
		args := []string{"--probe-setup", "--workload", c.workload, "--seed", strconv.FormatUint(c.seed, 10)}
		if c.quick {
			args = append(args, "--quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		var r struct {
			SetupS float64 `json:"setup_s"`
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("setup probe output: %w", err)
		}
		xs.add(r.SetupS*1e9, int32(i))
		meter.probe()
	}
	if meter.err != nil {
		return meter.err
	}
	c.set(mSetup, xs.quantileUS(0.5, meter.scale())/1e6)
	c.notef("unscaled: setup_s %.6g", xs.quantileUS(0.5, unscaled)/1e6)
	return nil
}

// memStats is a runtime.MemStats pair delimiting a measured phase.
type memStats struct{ m0, m1 runtime.MemStats }

func (m *memStats) start() { runtime.ReadMemStats(&m.m0) }
func (m *memStats) stop()  { runtime.ReadMemStats(&m.m1) }

func (m *memStats) allocs() float64 { return float64(m.m1.Mallocs - m.m0.Mallocs) }
func (m *memStats) gcPauseMS() float64 {
	return float64(m.m1.PauseTotalNs-m.m0.PauseTotalNs) / 1e6
}

// setRuntime reports the Go allocator and GC per-layer metrics for ops
// operations of the measured phase.
func (c *runCtx) setRuntime(m *memStats, ops float64) {
	if ops > 0 {
		c.set("runtime.allocs_per_op", m.allocs()/ops)
	}
	c.set("runtime.gc_pause_ms", m.gcPauseMS())
}

func (c *runCtx) setPeakRSS(extraPIDs ...int) error {
	total, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	for _, pid := range extraPIDs {
		mb, err := peakRSSMB(pid)
		if err != nil {
			return err
		}
		total += mb
	}
	c.set(mPeakRSS, total)
	return nil
}

// cpuMask is a Linux CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on, which need not be
// numbered from 0 (a container's CPU set).
func allowedCPUs() ([]int, error) {
	var mask cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus, nil
}

// setAffinity restricts thread tid to one CPU.
func setAffinity(tid, cpu int) error {
	var mask cpuMask
	mask[cpu/64] |= 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("pin thread %d to CPU %d: %w", tid, cpu, errno)
	}
	return nil
}
