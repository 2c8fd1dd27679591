package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"propane/internal/arrestor"
	"propane/internal/physics"
	"propane/internal/runner"
	"propane/internal/sim"
	"propane/internal/trace"
)

// The probes time single layers directly, outside any campaign: the
// simulation kernel's tick, the trace recorder, comparator and codec,
// an uninjected golden pass, and the runner's journal.

// probeCase and probeHorizon are the tick probes' simulation: the
// paper target's default configuration, one nominal arrestment.
var probeCase = physics.TestCase{MassKg: 14000, VelocityMS: 60}

const (
	probeHorizon = 6000
	// probeRounds is how many samples each tick variant takes; every
	// sample ticks probeInstances fresh instances to the horizon. The
	// variants alternate within a round so drift hits them alike.
	probeRounds    = 21
	probeInstances = 4
)

// tickVariant instruments a fresh instance for one tick probe.
type tickVariant struct {
	hook   sim.ReadHook
	attach func(*arrestor.Instance) error
}

// tickSample times probeInstances instances of one variant ticked to
// the horizon, returning ns per tick and heap objects allocated.
func tickSample(v tickVariant) (ns float64, allocs uint64, err error) {
	insts := make([]*arrestor.Instance, probeInstances)
	for i := range insts {
		inst, err := arrestor.NewInstance(arrestor.DefaultConfig(), probeCase, v.hook)
		if err != nil {
			return 0, 0, err
		}
		if v.attach != nil {
			if err := v.attach(inst); err != nil {
				return 0, 0, err
			}
		}
		insts[i] = inst
	}
	objs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(objs)
	before := objs[0].Value.Uint64()
	t0 := time.Now()
	for _, inst := range insts {
		k := inst.Kernel()
		for i := 0; i < probeHorizon; i++ {
			k.Tick()
		}
	}
	ns = float64(time.Since(t0)) / (probeInstances * probeHorizon)
	metrics.Read(objs)
	return ns, objs[0].Value.Uint64() - before, nil
}

// goldenTrace records one uninjected run of the probe case.
func goldenTrace() (*trace.Trace, error) {
	inst, err := arrestor.NewInstance(arrestor.DefaultConfig(), probeCase, nil)
	if err != nil {
		return nil, err
	}
	rec, err := trace.NewRecorderCap(inst.Bus(), probeHorizon)
	if err != nil {
		return nil, err
	}
	inst.Kernel().AddPostHook(rec.Hook())
	inst.Run(probeHorizon)
	return rec.Trace(), nil
}

// probeSimAndTrace sets the sim.* and trace.* metrics. Hook costs are
// the difference between an instrumented variant's median tick and
// the bare kernel's.
func probeSimAndTrace(rep *report) error {
	golden, err := goldenTrace()
	if err != nil {
		return err
	}
	variants := []tickVariant{
		{}, // bare kernel
		{hook: func(string, string, *sim.Signal, sim.Millis) {}},
		{attach: func(inst *arrestor.Instance) error {
			rec, err := trace.NewRecorderCap(inst.Bus(), probeHorizon)
			if err != nil {
				return err
			}
			inst.Kernel().AddPostHook(rec.Hook())
			return nil
		}},
		{attach: func(inst *arrestor.Instance) error {
			cmp, err := trace.NewStreamComparator(golden, inst.Bus())
			if err != nil {
				return err
			}
			inst.Kernel().AddPostHook(cmp.Hook())
			return nil
		}},
	}
	ns := make([][]float64, len(variants))
	var bareAllocs uint64
	runtime.GC()
	for r := 0; r < probeRounds; r++ {
		for i, v := range variants {
			t, allocs, err := tickSample(v)
			if err != nil {
				return err
			}
			ns[i] = append(ns[i], t)
			if i == 0 {
				bareAllocs += allocs
			}
		}
	}
	bare := median(ns[0])
	rep.set("sim.tick_ns", bare)
	rep.set("sim.allocs_per_tick", float64(bareAllocs)/float64(probeRounds*probeInstances*probeHorizon))
	rep.set("sim.read_hook_tick_ns", median(ns[1])-bare)
	rep.set("trace.record_tick_ns", median(ns[2])-bare)
	rep.set("trace.compare_tick_ns", median(ns[3])-bare)

	var rates []float64
	for i := 0; i < probeRounds; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		n, err := golden.WriteTo(&buf)
		if err != nil {
			return err
		}
		if _, err := trace.ReadTrace(&buf); err != nil {
			return err
		}
		rates = append(rates, 2*float64(n)/1e6/time.Since(t0).Seconds())
	}
	rep.set("trace.codec_mb_per_s", median(rates))

	return probeCheckpoint(rep)
}

// probeCheckpoint times capturing and restoring the complete
// simulation state mid-run.
func probeCheckpoint(rep *report) error {
	inst, err := arrestor.NewInstance(arrestor.DefaultConfig(), probeCase, nil)
	if err != nil {
		return err
	}
	inst.Run(2500)
	const n = 2000
	capture := make([]float64, 0, n)
	restore := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		snap, err := inst.Checkpoint()
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := inst.Restore(snap); err != nil {
			return err
		}
		capture = append(capture, float64(t1.Sub(t0))/1e3)
		restore = append(restore, float64(time.Since(t1))/1e3)
	}
	rep.set("sim.checkpoint_capture_us", median(capture))
	rep.set("sim.checkpoint_restore_us", median(restore))
	return nil
}

// probeGoldenPass times one uninjected pass over a registry
// configuration's test cases (median of five passes).
func probeGoldenPass(rep *report, instance string, tier runner.Tier) error {
	def, err := runner.Lookup(instance)
	if err != nil {
		return err
	}
	cfg, err := def.Config(tier)
	if err != nil {
		return err
	}
	var passes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for _, tc := range cfg.TestCases {
			inst, err := cfg.NewInstance(tc, nil)
			if err != nil {
				return err
			}
			inst.Run(cfg.HorizonMs)
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	rep.set("campaign.golden_pass_s", median(passes))
	return nil
}

// replayBatch and replayMax bound the journal probe: records are
// re-appended in batches of the worker upload size, each batch synced,
// up to replayMax records.
const (
	replayBatch = 64
	replayMax   = 4096
)

// probeJournal measures the runner's journal on the workload's own
// records: it sums the size of every journal under root, then replays
// up to replayMax of the records through a fresh shard journal.
func probeJournal(rep *report, root, scratch string) error {
	var paths []string
	var size int64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == filepath.Base(runner.ShardJournalPath("", 0, 1)) {
			info, err := d.Info()
			if err != nil {
				return err
			}
			size += info.Size()
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(paths)
	rep.set("runner.journal_bytes", float64(size))

	var recs []runner.Record
	var hdr runner.JournalHeader
	for _, p := range paths {
		h, rs, err := runner.ReadJournal(p)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			hdr = h
		}
		recs = append(recs, rs...)
		if len(recs) >= replayMax {
			recs = recs[:replayMax]
			break
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("no journal records under %s", root)
	}
	dir := filepath.Join(scratch, "journal-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j, err := runner.OpenShardJournal(dir, runner.JournalHeader{
		Version: hdr.Version, Instance: hdr.Instance, Tier: hdr.Tier,
		Shard: 0, Shards: 1, ConfigDigest: hdr.ConfigDigest,
	})
	if err != nil {
		return err
	}
	var appendTime time.Duration
	var syncMs []float64
	for off := 0; off < len(recs); off += replayBatch {
		end := min(off+replayBatch, len(recs))
		t0 := time.Now()
		if err := j.AppendBatch(recs[off:end]); err != nil {
			j.Close()
			return err
		}
		t1 := time.Now()
		if err := j.Sync(); err != nil {
			j.Close()
			return err
		}
		appendTime += t1.Sub(t0)
		syncMs = append(syncMs, float64(time.Since(t1))/1e6)
	}
	if err := j.Close(); err != nil {
		return err
	}
	rep.set("runner.journal_append_us_per_record", float64(appendTime)/1e3/float64(len(recs)))
	rep.set("runner.journal_sync_ms_p50", median(syncMs))
	return os.RemoveAll(dir)
}
