package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"afs"
	"afs/internal/lattice"
	"afs/internal/stream"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run starts its set-up probes, fleet shards and speed probe (all
// re-execute os.Executable with the benchmark's own flags).
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--shard" || a == "--probe-setup" || a == "--speed-probe" {
			os.Args = append([]string{os.Args[0]}, stripTestFlags(os.Args[1:])...)
			os.Exit(mainErr())
		}
	}
	os.Exit(m.Run())
}

func stripTestFlags(args []string) []string {
	var out []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-test.") {
			out = append(out, a)
		}
	}
	return out
}

// TestQuickWorkloads runs every workload at toy size, untraced and traced,
// and requires every check to pass and every named metric to be printed
// with its unit on the last line.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := newRunCtx(w.name, 7, 0.6, traced, true)
			var out bytes.Buffer
			if err := runOne(w, c, &out); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(res) != 4 {
				t.Errorf("%s: result keys %v, want correct/attempted/failed/metrics", w.name, keys(res))
			}
			var r struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.name, traced, r.Correct, r.Failed, r.Attempted, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestChecksRejectCorruptOutput feeds each output check real outputs of
// the system, then the same outputs with one value corrupted, and requires
// the check to pass the first and fail the second.
func TestChecksRejectCorruptOutput(t *testing.T) {
	t.Run("triage_partition", func(t *testing.T) {
		before, _ := readMCObs()
		res, err := afs.MeasureLogicalErrorRate(afs.AccuracyConfig{Distance: 5, P: 0.01, Trials: 4096, Seed: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		after, _ := readMCObs()
		tally := after.sub(before)
		if err := checkTriagePartition(tally, res.Trials); err != nil {
			t.Fatalf("real output rejected: %v", err)
		}
		tally.w1++
		if checkTriagePartition(tally, res.Trials) == nil {
			t.Error("a trial counted in two classes passed")
		}
	})
	t.Run("syndrome_weight", func(t *testing.T) {
		g := lattice.Cached3D(5, 5)
		var means []float64
		for s := uint64(0); s < 8; s++ {
			res, err := afs.MeasureLogicalErrorRate(afs.AccuracyConfig{Distance: 5, P: 0.01, Trials: 4096, Seed: s, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			means = append(means, res.MeanSyndromeWeight)
		}
		exp := expectedDefects(g, 0.01)
		if err := checkSyndromeWeight(means, exp); err != nil {
			t.Fatalf("real output rejected: %v", err)
		}
		// A sampler that lost one fault edge in fifty would read low.
		if checkSyndromeWeight(means, exp*1.04) == nil {
			t.Error("a 4% shifted expectation passed")
		}
	})
	t.Run("logical_error_rate", func(t *testing.T) {
		ref, err := loadReference(mcHeavy.quickD, mcHeavy.p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := afs.MeasureLogicalErrorRate(afs.AccuracyConfig{Distance: ref.Distance, P: ref.P, Trials: 1 << 15, Seed: 11, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRateAgainstReference(res.Failures, res.Trials, ref); err != nil {
			t.Fatalf("real output rejected: %v", err)
		}
		if checkRateAgainstReference(res.Failures*5/4, res.Trials, ref) == nil {
			t.Error("25% more failures passed")
		}
	})
	t.Run("baseline_corrections", func(t *testing.T) {
		pool := genRounds(1, 5, 0.01, 200, 5)
		dec, _ := stream.New(5, 0, 0)
		base, _ := stream.NewBaseline(5, 0, 0)
		for r := range pool {
			dec.PushLayer(pool[r][0])
			base.PushLayer(pool[r][0])
		}
		got := append([]stream.Correction(nil), dec.Committed()...)
		if len(got) == 0 {
			t.Fatal("no corrections to compare")
		}
		if err := checkCorrectionsEqual("s", got, base.Committed()); err != nil {
			t.Fatalf("real output rejected: %v", err)
		}
		got[len(got)/2].Round++
		if checkCorrectionsEqual("s", got, base.Committed()) == nil {
			t.Error("a corrupted correction passed")
		}
	})
	t.Run("fleet_digests", func(t *testing.T) {
		pool := genRounds(3, 5, 0.01, 100, 9)
		var digests [2][]corrDigest
		for k := range digests {
			digests[k] = make([]corrDigest, 3)
			ds := digests[k]
			eng, err := stream.NewEngine(stream.EngineConfig{Streams: 3, Distance: 5, Workers: 1 + k,
				Sink: func(i int, c stream.Correction) { ds[i].add(c) }})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.PushRounds(pool); err != nil {
				t.Fatal(err)
			}
			eng.Flush()
			eng.Close()
		}
		if err := checkDigestsEqual(digests[0], digests[1]); err != nil {
			t.Fatalf("real output rejected: %v", err)
		}
		var c stream.Correction
		digests[1][2].add(c)
		if checkDigestsEqual(digests[0], digests[1]) == nil {
			t.Error("an extra correction passed")
		}
	})
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables of this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, pair := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(pair.json), len(pair.defs))
		}
		for i, m := range pair.json {
			if m.Name != pair.defs[i].name || m.Unit != pair.defs[i].unit {
				t.Errorf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, pair.defs[i].name, pair.defs[i].unit)
			}
		}
	}
}

// TestSpeedMeterScaling checks the host-speed scaling on fixed probes: a
// slot measured while the probe read twice the nominal time counts at half
// its time, and rate and percentiles use each sample's own slot.
func TestSpeedMeterScaling(t *testing.T) {
	// One slot per probe, the last probe closing the loop. meterSpan
	// probes either side are pooled, so use a run long enough that the
	// first and last slots see only their own half.
	probes := make([]float64, 2*(meterSpan+1))
	for k := range probes {
		probes[k] = calibRefNS
		if k > meterSpan {
			probes[k] = 2 * calibRefNS
		}
	}
	m := &speedMeter{probes: probes}
	f := m.scale()
	if got := f(0); got != 1 {
		t.Errorf("factor of a slot at nominal speed = %v, want 1", got)
	}
	if got := f(int32(len(probes) - 2)); got != 0.5 {
		t.Errorf("factor of a slot at half speed = %v, want 0.5", got)
	}
	s := newSamples(true, 2)
	s.add(1000, 0)                    // nominal: counts 1000 ns
	s.add(2000, int32(len(probes)-2)) // half speed: counts 1000 ns
	if got := s.rate(1, f); math.Abs(got-1e6) > 1e-6 {
		t.Errorf("scaled rate = %v/s, want 1e6/s", got)
	}
	if got := s.quantileUS(1, f); math.Abs(got-1) > 1e-9 {
		t.Errorf("scaled max = %v us, want 1 us", got)
	}
	if got := s.rate(1, unscaled); math.Abs(got-1e9/1500) > 1e-6 {
		t.Errorf("unscaled rate = %v/s, want %v/s", got, 1e9/1500)
	}
}
