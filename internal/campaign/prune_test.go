package campaign

// Equivalence suite for the pruning/memoization path: for every
// target topology a campaign run with pruning forced on must produce
// a Result bit-identical to the same campaign with pruning off (every
// run fully executed). Runs under -race in CI alongside the
// checkpoint suite, stressing the shared memo cache.

import (
	"reflect"
	"sort"
	"testing"

	"propane/internal/inject"
	"propane/internal/sim"
	"propane/internal/trace"
)

// modelsConfig guarantees work for every transient classification: at
// any fired (port, instant) one of the two StuckAt models is the
// identity on bit 3 (no-op prune) and the other corrupts the value to
// exactly what BitFlip{3} produces (a memo hit on the second of the
// pair in serial order — Workers is pinned to 1 for that guarantee).
func modelsConfig() Config {
	cfg := tinyConfig()
	cfg.Bits = nil
	cfg.Models = []inject.ErrorModel{
		inject.BitFlip{Bit: 3},
		inject.StuckAt{Bit: 3, One: false},
		inject.StuckAt{Bit: 3, One: true},
	}
	cfg.Workers = 1
	return cfg
}

// TestPruneEquivalence proves the tentpole contract on every target:
// pruned, memoized and converged runs yield the same Result matrix,
// run for run, as executing every injection in full.
func TestPruneEquivalence(t *testing.T) {
	configs := map[string]func(t *testing.T) Config{
		"arrestor": func(t *testing.T) Config { return tinyConfig() },
		"dual": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.Dual = true
			return cfg
		},
		"autobrake": autobrakeConfig,
		// hostile covers crash and hang outcomes: a memoized crash must
		// synthesize the exact crash record of the executed one.
		"hostile": hostileConfig,
		// models guarantees no-op prunes and memo hits (see modelsConfig).
		"models": func(t *testing.T) Config { return modelsConfig() },
		// persistent exercises the window-value no-op rule.
		"persistent": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.FaultDurationMs = 400
			return cfg
		},
		"reduced": func(t *testing.T) Config {
			if testing.Short() {
				t.Skip("reduced equivalence skipped in -short mode")
			}
			return ReducedConfig()
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			off := mk(t)
			off.Prune = PruneOff
			base, baseRecs := runKeyed(t, off)

			on := mk(t)
			on.Prune = PruneForce
			pr, prRecs := runKeyed(t, on)

			assertEquivalent(t, base, pr, baseRecs, prRecs)

			if base.Pruning.Total() != 0 {
				t.Errorf("PruneOff still pruned: %+v", base.Pruning)
			}
			// Every unfired record must have been predicted from the read
			// log — an unfired trap that slipped through to execution
			// means the predictions are incomplete.
			if pr.Pruning.Unfired != pr.Unfired {
				t.Errorf("pruned %d unfired runs, result counts %d unfired traps", pr.Pruning.Unfired, pr.Unfired)
			}
			if name == "models" {
				if pr.Pruning.NoOp == 0 {
					t.Errorf("models config produced no no-op prunes: %+v", pr.Pruning)
				}
				if pr.Pruning.Memoized == 0 {
					t.Errorf("models config produced no memo hits: %+v", pr.Pruning)
				}
			}
			// The per-record labels must agree with the aggregate counters.
			counts := PruneSignalCounts{}
			for _, rec := range prRecs {
				switch rec.Pruned {
				case PrunedNoOp:
					counts.NoOp++
				case PrunedUnfired:
					counts.Unfired++
				case PrunedMemoized:
					counts.Memoized++
				case PrunedConverged:
					counts.Converged++
				case "":
					counts.Executed++
				default:
					t.Errorf("unknown pruned label %q", rec.Pruned)
				}
			}
			got := PruneSignalCounts{
				NoOp: pr.Pruning.NoOp, Unfired: pr.Pruning.Unfired,
				Memoized: pr.Pruning.Memoized, Converged: pr.Pruning.Converged,
				Executed: pr.Pruning.Executed,
			}
			if counts != got {
				t.Errorf("record labels %+v disagree with Result.Pruning %+v", counts, got)
			}
		})
	}
}

// TestPruneAutoFallsBackUnderInstrument: a pruned run never builds a
// target instance, so an Instrument hook would be skipped; PruneAuto
// must execute everything for instrumented campaigns — and still
// produce the baseline Result with every attachment present.
func TestPruneAutoFallsBackUnderInstrument(t *testing.T) {
	attach := func(inst Instance, caseIdx int) (any, error) { return caseIdx, nil }

	off := tinyConfig()
	off.Prune = PruneOff
	off.Instrument = attach
	base, baseRecs := runKeyed(t, off)

	auto := tinyConfig()
	auto.Prune = PruneAuto
	auto.Instrument = attach
	pr, prRecs := runKeyed(t, auto)

	assertEquivalent(t, base, pr, baseRecs, prRecs)
	if pr.Pruning.Total() != 0 {
		t.Errorf("PruneAuto pruned under an Instrument hook: %+v", pr.Pruning)
	}
	for key, rec := range prRecs {
		if rec.Attachment != rec.CaseIndex {
			t.Errorf("%s: attachment %v, want case index %d", key, rec.Attachment, rec.CaseIndex)
		}
	}
}

// TestMemoCacheEviction pins the cache's LRU contract: the bound
// holds, eviction removes the least recently used key (gets refresh
// recency), and served diff maps are never aliased to stored ones.
func TestMemoCacheEviction(t *testing.T) {
	mc := newMemoCache(2)
	key := func(i int) MemoKey { return MemoKey{Case: i, Module: "m", Signal: "s"} }
	entry := func(i int) MemoEntry {
		return MemoEntry{
			Outcome: OutcomeDeviation,
			FiredAt: 10,
			Diffs:   map[string]trace.Diff{"sig": {Signal: "sig", First: sim.Millis(i), Last: 5}},
		}
	}

	mc.put(key(1), entry(1))
	mc.put(key(2), entry(2))
	if _, ok := mc.get(key(1)); !ok { // refresh 1 → 2 becomes LRU
		t.Fatal("key 1 missing before eviction")
	}
	mc.put(key(3), entry(3))
	if mc.len() != 2 {
		t.Fatalf("cache holds %d entries, bound is 2", mc.len())
	}
	if _, ok := mc.get(key(2)); ok {
		t.Error("key 2 survived eviction despite being least recently used")
	}
	if _, ok := mc.get(key(1)); !ok {
		t.Error("key 1 evicted despite a refreshing get")
	}
	if _, ok := mc.get(key(3)); !ok {
		t.Error("key 3 missing right after put")
	}

	// Clone-on-serve: corrupting a served map must not reach the cache.
	served, _ := mc.get(key(3))
	served.Diffs["sig"] = trace.Diff{Signal: "sig", First: -99}
	again, _ := mc.get(key(3))
	if again.Diffs["sig"].First != 3 {
		t.Errorf("cache entry corrupted through a served map: %+v", again.Diffs["sig"])
	}

	// Storing an existing key updates in place without growing.
	mc.put(key(3), entry(4))
	if mc.len() != 2 {
		t.Fatalf("update grew the cache to %d entries", mc.len())
	}
	if e, _ := mc.get(key(3)); e.Diffs["sig"].First != 4 {
		t.Errorf("update did not replace the entry: %+v", e.Diffs["sig"])
	}
}

// readEvent, readLog and distill are the whole-horizon read log the
// golden pass kept before it distilled predictions as it ran: every
// instrumented read appended to a per-port slice, then reduced per
// instant by binary search. They survive here as the oracle the
// streaming predictor must match.
type readEvent struct {
	tick  sim.Millis
	value uint16
}

type readLog struct {
	events map[portKey][]readEvent
}

func (l *readLog) hook(module, signal string, sig *sim.Signal, now sim.Millis) {
	k := portKey{module: module, signal: signal}
	l.events[k] = append(l.events[k], readEvent{tick: now, value: sig.Read()})
}

type oraclePredictions struct {
	transient  map[portKey]map[sim.Millis]transientPred
	persistent map[portKey]map[sim.Millis]persistentPred
}

func (l *readLog) distill(times []sim.Millis, faultDuration sim.Millis) oraclePredictions {
	cp := oraclePredictions{}
	if faultDuration <= 0 {
		cp.transient = make(map[portKey]map[sim.Millis]transientPred, len(l.events))
		for k, evs := range l.events {
			m := make(map[sim.Millis]transientPred, len(times))
			for _, at := range times {
				i := sort.Search(len(evs), func(i int) bool { return evs[i].tick >= at })
				p := transientPred{}
				if i < len(evs) {
					p = transientPred{fires: true, fireTick: evs[i].tick, value: evs[i].value}
				}
				m[at] = p
			}
			cp.transient[k] = m
		}
		return cp
	}
	cp.persistent = make(map[portKey]map[sim.Millis]persistentPred, len(l.events))
	for k, evs := range l.events {
		m := make(map[sim.Millis]persistentPred, len(times))
		for _, at := range times {
			i := sort.Search(len(evs), func(i int) bool { return evs[i].tick >= at })
			p := persistentPred{}
			seen := make(map[uint16]bool)
			for ; i < len(evs) && evs[i].tick <= at+faultDuration; i++ {
				if !p.fires {
					p.fires = true
					p.fireTick = evs[i].tick
				}
				if !seen[evs[i].value] {
					seen[evs[i].value] = true
					p.values = append(p.values, evs[i].value)
					if len(p.values) > maxPersistentValues {
						p.unprunable = true
						break
					}
				}
			}
			m[at] = p
		}
		cp.persistent[k] = m
	}
	return cp
}

// oracleRun records one case's whole-horizon read log on an uninjected
// run under the campaign's budget.
func oracleRun(t *testing.T, cfg Config, i int) *readLog {
	t.Helper()
	lg := &readLog{events: make(map[portKey][]readEvent)}
	inst, err := cfg.NewInstance(cfg.TestCases[i], lg.hook)
	if err != nil {
		t.Fatal(err)
	}
	inst.Kernel().SetBudget(cfg.Budget)
	if crashed, pv := runGuarded(inst, cfg.HorizonMs); crashed || inst.Kernel().Exhausted() {
		t.Fatalf("oracle golden run %d failed: crashed %t (%v), exhausted %t", i, crashed, pv, inst.Kernel().Exhausted())
	}
	return lg
}

// TestStreamingPredictionsMatchReadLog proves the golden pass's
// streaming predictor equals the whole-horizon read log it replaced,
// on every target kind of the registry (the arrestor in its single and
// dual deployments, autobrake, and the crash/hang-prone hostile
// target), for transient faults and for persistent windows short and
// long. The instant list ends one tick before the horizon, past the
// last read of ports sampled less than every tick, and the long
// windows read more than maxPersistentValues distinct values; both
// corners are asserted to occur.
func TestStreamingPredictionsMatchReadLog(t *testing.T) {
	targets := map[string]func(t *testing.T) Config{
		"arrestor": func(t *testing.T) Config { return tinyConfig() },
		"dual": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.Dual = true
			return cfg
		},
		"autobrake": autobrakeConfig,
		"hostile":   hostileConfig,
	}
	afterLastRead, unprunable := 0, 0
	for name, mk := range targets {
		base := mk(t)
		// Duplicated and unsorted instants must resolve like sorted ones.
		base.Times = append(append([]sim.Millis{base.HorizonMs - 1}, base.Times...), base.Times[0], 0)
		for _, dur := range []sim.Millis{0, base.HorizonMs / 10, base.HorizonMs} {
			cfg := base
			cfg.FaultDurationMs = dur
			gs, err := ComputeGolden(cfg)
			if err != nil {
				t.Fatalf("%s dur=%d: %v", name, dur, err)
			}
			for ci := range cfg.TestCases {
				want := oracleRun(t, cfg, ci).distill(cfg.Times, dur)
				g := gs.Cases[ci]
				ports := make(map[portKey]bool)
				for k := range want.transient {
					ports[k] = true
				}
				for k := range want.persistent {
					ports[k] = true
				}
				for k := range g.ports {
					ports[k] = true
				}
				for pk := range ports {
					for _, at := range cfg.Times {
						if dur == 0 {
							w, got := want.transient[pk][at], g.transient(pk, at)
							if w != got {
								t.Errorf("%s case %d %v t=%d: streamed %+v, read log %+v", name, ci, pk, at, got, w)
							}
							if len(want.transient[pk]) > 0 && !w.fires {
								afterLastRead++
							}
							if g.fires(pk, at) != w.fires {
								t.Errorf("%s case %d %v t=%d: fires disagrees with the prediction", name, ci, pk, at)
							}
							continue
						}
						w, got := want.persistent[pk][at], g.persistent(pk, at)
						if !reflect.DeepEqual(w, got) {
							t.Errorf("%s dur=%d case %d %v t=%d: streamed %+v, read log %+v", name, dur, ci, pk, at, got, w)
						}
						if w.unprunable {
							unprunable++
						}
						if g.fires(pk, at) != w.fires {
							t.Errorf("%s dur=%d case %d %v t=%d: fires disagrees with the prediction", name, dur, ci, pk, at)
						}
					}
				}
			}
		}
	}
	if afterLastRead == 0 {
		t.Error("no instant fell after a read port's last read — the corner is not covered")
	}
	if unprunable == 0 {
		t.Errorf("no window read more than %d distinct values — the corner is not covered", maxPersistentValues)
	}
}
