package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclarationsMatchBenchmarkFile holds the metric and workload
// tables equal to BENCHMARK.json, units included.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layers []decl
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, decl{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program declares %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, program declares %v", layers, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads = %v, program runs %v", names, workloadNames())
	}
}

func testConfig(t *testing.T, workload string, traced bool) config {
	t.Helper()
	rs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: workload,
		seed:     3,
		seconds:  time.Second,
		trace:    traced,
		work:     t.TempDir(),
		scale:    testScale,
		refs:     rs,
	}
}

// runSmoke runs a workload at test scale and decodes the printed
// result line.
func runSmoke(t *testing.T, cfg config) (result, *report, error) {
	t.Helper()
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var out bytes.Buffer
	emitErr := emit(rep, cfg.trace, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", cfg.workload, err, out.String())
	}
	return res, rep, emitErr
}

// TestWorkloadsSmoke runs every workload at test scale, untraced and
// traced: each must pass its correctness gate and print exactly the
// declared metrics with their units.
func TestWorkloadsSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	declared := make(map[string]string)
	for _, m := range bf.EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = m.Unit
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, rep, err := runSmoke(t, testConfig(t, name, traced))
			if err != nil || !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: err=%v correct=%v failed=%d mismatches=%v",
					name, traced, err, res.Correct, res.Failed, rep.mismatches)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: printed %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
			for n, m := range res.Metrics {
				if unit, ok := declared[n]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: printed %s [%s], BENCHMARK.json declares [%s] (present=%v)",
						name, traced, n, m.Unit, unit, ok)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", name, n)
				}
			}
		}
	}
}

// exactCounts are the traced metrics that must repeat exactly between
// two runs of paper-adaptive-fleet.
var exactCounts = []string{
	"campaign.runs_settled", "campaign.runs_executed", "campaign.pruned_unfired",
	"campaign.pruned_noop", "campaign.memo_hits", "campaign.memo_store_hits",
	"campaign.converged", "campaign.adaptive_sampled_ratio", "distrib.units_done",
}

func TestDeterministicCountsRepeat(t *testing.T) {
	a, _, errA := runSmoke(t, testConfig(t, "paper-adaptive-fleet", true))
	b, _, errB := runSmoke(t, testConfig(t, "paper-adaptive-fleet", true))
	if errA != nil || errB != nil {
		t.Fatalf("paper-adaptive-fleet: %v / %v", errA, errB)
	}
	for _, n := range exactCounts {
		if a.Metrics[n] != b.Metrics[n] {
			t.Errorf("paper-adaptive-fleet: %s = %v then %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
		}
	}
	// The service mix's store hits depend on completion order; the
	// settled-run total and the schedule do not.
	a, _, errA = runSmoke(t, testConfig(t, "service-mixed", true))
	b, _, errB = runSmoke(t, testConfig(t, "service-mixed", true))
	if errA != nil || errB != nil {
		t.Fatalf("service-mixed: %v / %v", errA, errB)
	}
	for _, n := range []string{"campaign.runs_settled", "loadgen.submitted"} {
		if a.Metrics[n] != b.Metrics[n] {
			t.Errorf("service-mixed: %s = %v then %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
		}
	}
}

// wrongRefs returns refs with one digest of every entry zeroed.
func wrongRefs(rs refs, records bool) refs {
	wrong := make(refs, len(rs))
	for k, e := range rs {
		if records {
			e.Records = strings.Repeat("0", len(e.Records))
		} else {
			e.Result = strings.Repeat("0", len(e.Result))
		}
		wrong[k] = e
	}
	return wrong
}

// TestGateTripsOnWrongReference corrupts the references a workload
// checks against — the result digests, and for paper-adaptive-fleet
// separately the record-set digests of its journal: the run must
// report the mismatch, count it as failed, and end in errMismatch.
func TestGateTripsOnWrongReference(t *testing.T) {
	cases := []struct {
		workload string
		records  bool
	}{
		{"paper-adaptive-fleet", false},
		{"paper-adaptive-fleet", true},
		{"service-mixed", false},
	}
	for _, c := range cases {
		cfg := testConfig(t, c.workload, false)
		cfg.refs = wrongRefs(cfg.refs, c.records)
		if c.workload == "service-mixed" {
			// A schedule of at least one whole block holds every
			// registry instance.
			cfg.seconds = time.Duration(len(serviceMix)/mixRate+1) * time.Second
		}
		res, rep, err := runSmoke(t, cfg)
		var mm errMismatch
		if !errors.As(err, &mm) || res.Correct || res.Failed == 0 || len(rep.mismatches) == 0 {
			t.Errorf("%s (records=%v): wrong reference not caught: err=%v correct=%v failed=%d",
				c.workload, c.records, err, res.Correct, res.Failed)
		}
	}
}

// TestRepeatGateTrips gives one repeated document a result other than
// its first execution's: the service gate must report it as failed.
func TestRepeatGateTrips(t *testing.T) {
	cfg := testConfig(t, "service-mixed", false)
	sched, err := mixSchedule(cfg.seed, time.Duration(len(serviceMix)/mixRate+1)*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m, err := runMix(cfg, sched, cfg.work, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	m.verify(cfg, rep, "clean")
	if rep.failed != 0 || len(rep.mismatches) != 0 {
		t.Fatalf("clean mix failed %d: %v", rep.failed, rep.mismatches)
	}
	var repeat, other *submission
	for _, s := range m.subs {
		if s.kind == kindRepeat && repeat == nil {
			repeat = s
		}
	}
	if repeat == nil {
		t.Fatal("the schedule holds no repeat")
	}
	for _, s := range m.subs {
		if s.key != repeat.key && s.result != nil && resultDigest(s.result) != resultDigest(repeat.result) {
			other = s
			break
		}
	}
	if other == nil {
		t.Fatal("no submission with a different result")
	}
	repeat.result = other.result
	rep = &report{}
	m.verify(cfg, rep, "swapped")
	if rep.failed != 1 || len(rep.mismatches) != 1 {
		t.Errorf("swapped repeat: failed=%d mismatches=%v, want one", rep.failed, rep.mismatches)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a, err := mixSchedule(7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mixSchedule(7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew two different schedules")
	}
	c, err := mixSchedule(8, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same schedule")
	}
	kinds := make(map[string]int)
	for _, s := range a {
		kinds[s.kind]++
	}
	for _, k := range []string{kindFresh, kindRepeat, kindRegistry} {
		if kinds[k] == 0 {
			t.Errorf("a 5 s schedule holds no %s submission: %v", k, kinds)
		}
	}
}

// TestCPUTimeCountsWorkNotWaiting checks the clock behind the
// end-to-end times: it advances while the process computes and stays
// put while it sleeps.
func TestCPUTimeCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuTime()
	time.Sleep(200 * time.Millisecond)
	if slept := cpuTime() - c0; slept > 100*time.Millisecond {
		t.Errorf("200 ms of sleep cost %v of processor time", slept)
	}
	c0 = cpuTime()
	deadline := time.Now().Add(10 * time.Second)
	x := uint64(1)
	for cpuTime()-c0 < 50*time.Millisecond && time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	if used := cpuTime() - c0; used < 50*time.Millisecond {
		t.Errorf("a busy loop of 10 s wall-clock time used only %v of processor time (x=%d)", used, x)
	}
}
