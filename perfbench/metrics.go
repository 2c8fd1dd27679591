package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// decl is one declared metric. The two lists mirror BENCHMARK.json;
// the tests hold them equal.
type decl struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off on every workload. The times are processor time (see
// cpuTime): on a host shared with other tenants, wall-clock time
// measures the neighbours as much as the program.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"campaign_cpu_s", "s"},
	{"ok_frac", "fraction"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// wallClock are the wall-clock figures of the untraced pass. They lead
// the per-layer list: the traced run reports them from its untraced
// pass, and the untraced run prints them beside the result line.
var wallClock = []decl{
	{"setup_wall_s", "s"},
	{"campaign_s", "s"},
	{"runs_per_s", "runs/s"},
	{"turnaround_p50_s", "s"},
	{"turnaround_p90_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reports zero.
var perLayer = append(append([]decl(nil), wallClock...), []decl{
	{"sim.tick_ns", "ns"},
	{"sim.allocs_per_tick", "count"},
	{"sim.read_hook_tick_ns", "ns"},
	{"sim.checkpoint_capture_us", "us"},
	{"sim.checkpoint_restore_us", "us"},
	{"trace.record_tick_ns", "ns"},
	{"trace.compare_tick_ns", "ns"},
	{"trace.codec_mb_per_s", "MB/s"},
	{"campaign.runs_settled", "count"},
	{"campaign.runs_executed", "count"},
	{"campaign.pruned_unfired", "count"},
	{"campaign.pruned_noop", "count"},
	{"campaign.memo_hits", "count"},
	{"campaign.memo_store_hits", "count"},
	{"campaign.converged", "count"},
	{"campaign.executed_ratio", "fraction"},
	{"campaign.golden_pass_s", "s"},
	{"campaign.first_record_s", "s"},
	{"campaign.adaptive_sampled_ratio", "fraction"},
	{"runner.journal_bytes", "bytes"},
	{"runner.journal_append_us_per_record", "us"},
	{"runner.journal_sync_ms_p50", "ms"},
	{"distrib.lease.calls", "count"},
	{"distrib.lease.hold_ms_p50", "ms"},
	{"distrib.lease.hold_ms_p90", "ms"},
	{"distrib.records.calls", "count"},
	{"distrib.records.bytes", "bytes"},
	{"distrib.records.ms_p50", "ms"},
	{"distrib.complete.calls", "count"},
	{"distrib.complete.ms_p50", "ms"},
	{"distrib.heartbeat.calls", "count"},
	{"distrib.http_errors", "count"},
	{"distrib.units_done", "count"},
	{"distrib.jobs_per_unit", "count"},
	{"distrib.fleet_utilization_mean", "fraction"},
	{"store.get.calls", "count"},
	{"store.get.hit_ratio", "fraction"},
	{"store.get_us_p50", "us"},
	{"store.put.calls", "count"},
	{"store.put_us_p50", "us"},
	{"service.submit_ms_p50", "ms"},
	{"service.submit_ms_p90", "ms"},
	{"service.rejected", "count"},
	{"service.queue_wait_s_p50", "s"},
	{"service.queue_wait_s_p90", "s"},
	{"service.exec_s_p50", "s"},
	{"service.exec_s_p90", "s"},
	{"service.notify_lag_ms_p50", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms_total", "ms"},
	{"go.gc_cpu_frac", "fraction"},
	{"loadgen.submitted", "count"},
	{"loadgen.lag_p90_ms", "ms"},
	{"slo_attainment", "fraction"},
	{"trace_overhead_frac", "fraction"},
	{"failed_frac", "fraction"},
}...)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the processor time the process has used so far, user
// and system, summed over its threads. Unlike wall-clock time it does
// not grow while the process waits for a processor, and a kernel with
// paravirtual steal accounting does not charge it with time the
// hypervisor gave to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes      float64
	gcCycles        float64
	gcPauseNs       float64
	gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		allocBytes: val(0),
		gcCycles:   val(1),
		gcCPU:      val(2),
		totalCPU:   val(3),
		gcPauseNs:  float64(ms.PauseTotalNs),
	}
}

// setGoLayer records the runtime's work between two readings.
func (r *report) setGoLayer(before, after runtimeSample) {
	r.set("go.gc_cycles", after.gcCycles-before.gcCycles)
	r.set("go.gc_pause_ms_total", (after.gcPauseNs-before.gcPauseNs)/1e6)
	frac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		frac = (after.gcCPU - before.gcCPU) / cpu
	}
	r.set("go.gc_cpu_frac", frac)
}

// rssSampler tracks the process's peak resident set while a measured
// phase runs, by reading /proc/self/statm every rssEvery.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // pages
}

const rssEvery = 20 * time.Millisecond

// sampleRSS returns memory the heap no longer uses to the OS, so each
// phase starts from the same resident set, then starts sampling.
func sampleRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if pages := residentPages(); pages > s.peak {
				s.peak = pages
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak in MB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	if pages := residentPages(); pages > s.peak {
		s.peak = pages
	}
	return float64(s.peak*int64(os.Getpagesize())) / (1 << 20)
}

func residentPages() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
