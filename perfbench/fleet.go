package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"propane/internal/campaign"
	"propane/internal/distrib"
)

// maxWorkers caps simulation parallelism in every workload: the
// benchmark host has two cores.
const maxWorkers = 2

// campaignRun is one measured paper-adaptive-fleet campaign.
type campaignRun struct {
	setup, total time.Duration
	// setupCPU and cpu are the processor time the process used up to
	// the first settled run and over the whole campaign.
	setupCPU, cpu time.Duration
	// p50, p90 are the times from the call until half and nine tenths
	// of the campaign's runs had settled at the coordinator.
	p50, p90 time.Duration
	allocMB  float64
	root     string // everything the campaign wrote
	dir      string // the coordinator's artifact directory
	result   *campaign.Result
	watch    *httpWatch
	progress []progressSample
	units    distrib.Metrics
}

// runFleet runs one paper campaign through an adaptive coordinator and
// two loopback workers of one simulation worker each, over real HTTP,
// with no persistent store. probe stops it as soon as the first run
// settles (a set-up sample).
func runFleet(cfg config, dir string, probe, traced bool) (campaignRun, error) {
	coordDir := filepath.Join(dir, "coord")
	workersDir := filepath.Join(dir, "workers")
	start := time.Now()
	cpu0 := cpuTime()
	before := readRuntime()
	coord, err := distrib.NewCoordinator(distrib.Config{
		Instance: cfg.scale.paperInstance,
		Tier:     cfg.scale.paperTier,
		Dir:      coordDir,
		Adaptive: campaign.AdaptiveForce,
	})
	if err != nil {
		return campaignRun{}, err
	}
	defer coord.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return campaignRun{}, err
	}
	watch := newHTTPWatch(coord.Handler(), traced)
	srv := distrib.NewServer(watch)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l)
	}()
	defer func() {
		_ = srv.Close()
		<-served
	}()

	ctx, cancel := context.WithCancel(context.Background())
	first := watchFirstRecord(workersDir, start, cpu0)
	defer first.stop()
	url := "http://" + l.Addr().String()
	errs := make([]error, maxWorkers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = distrib.RunWorkerContext(ctx, url, distrib.WorkerOptions{
				Name:    fmt.Sprintf("w%d", i+1),
				Dir:     workersDir,
				Workers: 1,
			})
		}(i)
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	defer func() {
		cancel()
		<-workersDone
	}()

	if probe {
		select {
		case <-first.found:
		case <-workersDone:
			return campaignRun{}, fmt.Errorf("fleet exited before the first run settled: %w", errors.Join(errs...))
		}
		return campaignRun{setup: first.elapsed(), setupCPU: first.cpuUsed(), root: dir}, nil
	}

	// Workers exit once the coordinator answers that the campaign is
	// done, or on a fatal error.
	progress := sampleProgress(coord, start, workersDone)
	select {
	case <-coord.Done():
	default:
		return campaignRun{}, fmt.Errorf("fleet exited before the campaign completed: %w", errors.Join(errs...))
	}
	if err := errors.Join(errs...); err != nil {
		return campaignRun{}, err
	}
	units := coord.Metrics()
	rr, err := coord.Assemble()
	total := time.Since(start)
	cpu := cpuTime() - cpu0
	after := readRuntime()
	if err != nil {
		return campaignRun{}, err
	}
	runs := rr.Result.Runs
	return campaignRun{
		setup:    first.elapsed(),
		total:    total,
		setupCPU: first.cpuUsed(),
		cpu:      cpu,
		p50:      settledBy(progress, runs, 0.5, total),
		p90:      settledBy(progress, runs, 0.9, total),
		allocMB:  (after.allocBytes - before.allocBytes) / 1e6,
		root:     dir,
		dir:      coordDir,
		result:   rr.Result,
		watch:    watch,
		progress: progress,
		units:    units,
	}, nil
}

// journalPoll is how often watchFirstRecord looks at the workers'
// scratch journals.
const journalPoll = 2 * time.Millisecond

// firstRecord is the instant a fleet's first run settled: the first
// record appended to any worker's local unit journal. Workers journal
// every run there as it settles and upload a unit's records only once
// the whole unit has run, so the coordinator sees the first record
// much later.
type firstRecord struct {
	at    atomic.Int64 // ns after start; 0 until seen
	cpu   atomic.Int64 // processor ns used since start, when seen
	found chan struct{}
	quit  chan struct{}
	done  chan struct{}
}

// watchFirstRecord polls the unit journals under workersDir (laid out
// as <worker>/<config>/<unit>/journal.jsonl) until one holds a record
// after its header line, or until stop is called. cpu0 is the process's
// processor time at start.
func watchFirstRecord(workersDir string, start time.Time, cpu0 time.Duration) *firstRecord {
	f := &firstRecord{found: make(chan struct{}), quit: make(chan struct{}), done: make(chan struct{})}
	pattern := filepath.Join(workersDir, "*", "*", "*", "journal.jsonl")
	go func() {
		defer close(f.done)
		t := time.NewTicker(journalPoll)
		defer t.Stop()
		for {
			paths, _ := filepath.Glob(pattern)
			for _, p := range paths {
				// A journal that vanished or cannot be read yet holds no
				// record as far as the watch can tell.
				data, _ := os.ReadFile(p)
				if bytes.Count(data, []byte{'\n'}) >= 2 {
					f.cpu.Store(int64(cpuTime() - cpu0))
					f.at.Store(int64(time.Since(start)))
					close(f.found)
					return
				}
			}
			select {
			case <-f.quit:
				return
			case <-t.C:
			}
		}
	}()
	return f
}

// stop ends the watch and waits for it.
func (f *firstRecord) stop() {
	select {
	case <-f.quit:
	default:
		close(f.quit)
	}
	<-f.done
}

// elapsed is the time from start to the first record (0 if none).
func (f *firstRecord) elapsed() time.Duration { return time.Duration(f.at.Load()) }

// cpuUsed is the processor time used from start to the first record
// (0 if none).
func (f *firstRecord) cpuUsed() time.Duration { return time.Duration(f.cpu.Load()) }

// progressEvery is how often sampleProgress reads the coordinator.
// Each read costs about 0.1 ms of processor time under the
// coordinator's lock; 50 ms is 0.6% of a 9 s turnaround.
const progressEvery = 50 * time.Millisecond

// progressSample is one reading of the coordinator's progress.
type progressSample struct {
	at          time.Duration // after start
	done        int           // runs settled at the coordinator
	utilization float64
}

// sampleProgress reads the coordinator's settled-run count and fleet
// utilisation every progressEvery until the fleet exits, then once
// more.
func sampleProgress(coord *distrib.Coordinator, start time.Time, fleetDone <-chan struct{}) []progressSample {
	var out []progressSample
	read := func() {
		m := coord.Metrics()
		out = append(out, progressSample{at: time.Since(start), done: m.DoneRuns, utilization: m.FleetUtilization})
	}
	t := time.NewTicker(progressEvery)
	defer t.Stop()
	for {
		select {
		case <-fleetDone:
			read()
			return out
		case <-t.C:
			read()
		}
	}
}

// settledBy returns the first sampled time at which at least share of
// runs had settled, or total when no sample saw it.
func settledBy(samples []progressSample, runs int, share float64, total time.Duration) time.Duration {
	need := int(math.Ceil(share * float64(runs)))
	for _, s := range samples {
		if s.done >= need {
			return s.at
		}
	}
	return total
}

// fleetWorkload is paper-adaptive-fleet: whole campaigns back to back
// with tracing off, then — for the traced pass — one more campaign
// with the layer hooks on, followed by the standalone probes.
func fleetWorkload(cfg config) (*report, error) {
	rep := &report{}
	key := refKey(cfg.scale.paperInstance, cfg.scale.paperTier, true)
	verify := func(c campaignRun, what string) error {
		records, _, err := journalDigest(c.dir)
		if err != nil {
			return err
		}
		if !cfg.refs.check(rep, what, key, resultDigest(c.result), records) {
			rep.failed++
		}
		return nil
	}

	// Measured phase: whole campaigns back to back until the window is
	// filled. Each is verified and dropped before the next starts, so
	// no campaign runs beside its predecessors' results.
	var setups, setupCPUs, cpus, totals, rates, p50s, p90s, allocs, peaks []float64
	window := time.Now()
	for i := 0; i == 0 || time.Since(window) < cfg.seconds; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("rep-%d", i))
		rss := sampleRSS()
		c, err := runFleet(cfg, dir, false, false)
		peak := rss.peakMB()
		rep.attempted++
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", i, err)
		}
		log.Printf("campaign %d: %.3f s (%.3f s processor), set-up %.3f s (%.3f s processor), half settled %.3f s, %d units, %.1f MB allocated, peak RSS %.1f MB",
			i, c.total.Seconds(), c.cpu.Seconds(), c.setup.Seconds(), c.setupCPU.Seconds(), c.p50.Seconds(), c.units.UnitsDone, c.allocMB, peak)
		if err := verify(c, fmt.Sprintf("campaign %d", i)); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(c.root); err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
		setupCPUs = append(setupCPUs, c.setupCPU.Seconds())
		cpus = append(cpus, c.cpu.Seconds())
		totals = append(totals, c.total.Seconds())
		rates = append(rates, float64(c.result.Runs)/(c.total-c.setup).Seconds())
		p50s = append(p50s, c.p50.Seconds())
		p90s = append(p90s, c.p90.Seconds())
		allocs = append(allocs, c.allocMB)
		peaks = append(peaks, peak)
	}
	// Top up the set-up samples with probes that stop at the first
	// settled run.
	for i := 0; len(setups) < setupSamples; i++ {
		c, err := runFleet(cfg, filepath.Join(cfg.work, fmt.Sprintf("probe-%d", i)), true, false)
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		setups = append(setups, c.setup.Seconds())
		setupCPUs = append(setupCPUs, c.setupCPU.Seconds())
	}

	rep.set("setup_s", median(setupCPUs))
	rep.set("campaign_cpu_s", median(cpus))
	rep.set("setup_wall_s", median(setups))
	rep.set("campaign_s", median(totals))
	rep.set("runs_per_s", median(rates))
	rep.set("turnaround_p50_s", median(p50s))
	rep.set("turnaround_p90_s", median(p90s))
	rep.set("ok_frac", 1-float64(rep.failed)/float64(rep.attempted))
	rep.set("alloc_mb", median(allocs))
	rep.set("peak_rss_mb", median(peaks))
	if !cfg.trace {
		return rep, nil
	}

	// Traced pass. It starts from the state the measured campaigns
	// started from, so trace_overhead_frac compares like with like.
	rss := sampleRSS()
	rt0 := readRuntime()
	c, err := runFleet(cfg, filepath.Join(cfg.work, "traced"), false, true)
	rt1 := readRuntime()
	rss.peakMB()
	rep.attempted++
	if err != nil {
		return nil, fmt.Errorf("traced campaign: %w", err)
	}
	log.Printf("traced campaign: %.3f s, set-up %.3f s", c.total.Seconds(), c.setup.Seconds())
	if err := verify(c, "traced campaign"); err != nil {
		return nil, err
	}
	rep.setGoLayer(rt0, rt1)
	rep.set("trace_overhead_frac", c.cpu.Seconds()/median(cpus)-1)
	rep.set("campaign.first_record_s", c.setup.Seconds())
	setCampaignCounts(rep, []*campaign.Result{c.result})
	c.watch.setDistribLayer(rep)
	rep.set("distrib.units_done", float64(c.units.UnitsDone))
	perUnit := 0.0
	if c.units.UnitsDone > 0 {
		perUnit = float64(c.units.DoneRuns) / float64(c.units.UnitsDone)
	}
	rep.set("distrib.jobs_per_unit", perUnit)
	var util []float64
	for _, s := range c.progress {
		util = append(util, s.utilization)
	}
	rep.set("distrib.fleet_utilization_mean", mean(util))
	setStoreLayer(rep, nil)
	zeroLayers(rep, "slo_attainment", "service.queue_wait_s_p50", "service.queue_wait_s_p90",
		"service.exec_s_p50", "service.exec_s_p90", "service.notify_lag_ms_p50",
		"loadgen.submitted", "loadgen.lag_p90_ms")
	if err := probeJournal(rep, c.dir, cfg.work); err != nil {
		return nil, err
	}
	if err := probeGoldenPass(rep, cfg.scale.paperInstance, cfg.scale.paperTier); err != nil {
		return nil, err
	}
	if err := probeSimAndTrace(rep); err != nil {
		return nil, err
	}
	rep.set("failed_frac", float64(rep.failed)/float64(rep.attempted))
	return rep, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
