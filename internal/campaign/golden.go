package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"propane/internal/sim"
	"propane/internal/target"
	"propane/internal/trace"
)

// The golden artifact. Every consumer of a test case's uninjected
// behaviour — the Golden Run Comparison reference, the runner's config
// digest, the analytical estimator's activity weights, checkpoint
// fast-forward, equivalence pruning and the adaptive sampler's
// fireable populations — reads it from one Golden, built by one
// uninjected pass per case. The pass runs the target with the trace
// recorder and a streaming read hook installed, pausing at each
// injection instant to take the checkpoint snapshot; the hook distils
// the firing predictions as the reads happen, so no read log is ever
// held.

// Golden is one test case's uninjected reference run. It is immutable
// once built and shared read-only across workers, campaigns and (via
// internal/runner's digest-keyed table) every consumer of one
// configuration in the process.
type Golden struct {
	// Trace is the recorded golden trace.
	Trace *trace.Trace
	// Digest is the hex SHA-256 of Trace's canonical encoding. It pins
	// the target's deterministic behaviour in internal/runner's config
	// digest.
	Digest string
	// activity is, per signal, the fraction of ticks on which the
	// signal changed value.
	activity map[string]float64
	// snaps holds the checkpoint snapshot at each injection instant:
	// the state just before tick `at` executes. Nil when the target is
	// not checkpointable.
	snaps map[sim.Millis]*sim.Snapshot
	// times are the distinct injection instants, ascending, that index
	// the per-port predictions (shared with the GoldenSet).
	times []sim.Millis
	// ports holds the firing predictions of every instrumented port
	// the pass read. A port it never read has no entry; the zero
	// prediction a lookup then returns means "cannot fire".
	ports map[portKey]*portPreds
}

// GoldenSet is one configuration's golden artifact: a Golden per test
// case, in TestCases order.
type GoldenSet struct {
	Cases []*Golden
	// The configuration fields the artifact depends on besides the
	// target and the test cases; fits checks them. (The run budget
	// only decides whether a pass fails, never what it records.)
	times         []sim.Millis
	faultDuration sim.Millis
	horizon       sim.Millis
}

// Typed golden-pass failures, matched with errors.Is through a
// *GoldenError.
var (
	// ErrGoldenCrash: target code panicked during an uninjected run.
	ErrGoldenCrash = errors.New("uninjected target crashed")
	// ErrGoldenBudget: an uninjected run exceeded the run budget.
	ErrGoldenBudget = errors.New("uninjected run exceeded the run budget")
	// ErrCheckpoint: the target failed to capture a checkpoint.
	ErrCheckpoint = errors.New("checkpoint capture failed")
	// ErrNotCheckpointable: checkpoints are on, yet a test case's
	// instance does not implement target.Checkpointable.
	ErrNotCheckpointable = errors.New("target is not checkpointable")
)

// GoldenError reports a golden pass that could not produce a
// reference. An uninjected run must neither crash nor exhaust its
// budget — either means a broken target or an undersized budget, not
// a result — so every consumer fails on it.
type GoldenError struct {
	// Case is the test-case index.
	Case int
	// At is the instant the pass was advancing to, or the horizon.
	At sim.Millis
	// Kind is one of the Err* sentinels above.
	Kind error
	// Detail carries the panic value, the steps used or the cause.
	Detail string
}

func (e *GoldenError) Error() string {
	return fmt.Sprintf("campaign: golden run %d (to t=%d): %v: %s", e.Case, e.At, e.Kind, e.Detail)
}

func (e *GoldenError) Unwrap() error { return e.Kind }

// goldenPasses counts uninjected golden passes (one per test case)
// run by this process.
var goldenPasses atomic.Int64

// GoldenPasses returns how many per-case golden passes this process
// has run — a diagnostic counter for tests and benchmarks proving the
// artifact is shared rather than recomputed.
func GoldenPasses() int64 { return goldenPasses.Load() }

// ComputeGolden runs one uninjected pass per test case, fanned out
// over the campaign's worker count (each pass is independent and
// deterministic, so the artifact is identical to a serial recording).
func ComputeGolden(cfg Config) (*GoldenSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gs := &GoldenSet{
		Cases:         make([]*Golden, len(cfg.TestCases)),
		times:         distinctInstants(cfg.Times),
		faultDuration: cfg.FaultDurationMs,
		horizon:       cfg.HorizonMs,
	}
	errs := make([]error, len(cfg.TestCases))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workerCount(cfg.Workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				gs.Cases[i], errs[i] = goldenPass(cfg, i, gs.times)
			}
		}()
	}
	for i := range cfg.TestCases {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return gs, nil
}

// distinctInstants returns the distinct injection instants, ascending.
func distinctInstants(times []sim.Millis) []sim.Millis {
	out := append([]sim.Millis(nil), times...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, t := range out {
		if i == 0 || t != out[n-1] {
			out[n] = t
			n++
		}
	}
	return out[:n]
}

// goldenPass records test case i's Golden. A checkpointable instance
// is advanced instant by instant and snapshotted at each tick
// boundary; the recorder and read hook only observe, so the trace is
// bit-identical to an unpaused, unhooked run.
func goldenPass(cfg Config, i int, times []sim.Millis) (*Golden, error) {
	goldenPasses.Add(1)
	rp := &readPredictor{times: times, dur: cfg.FaultDurationMs, ports: make(map[portKey]*portPreds)}
	inst, err := cfg.NewInstance(cfg.TestCases[i], rp.hook)
	if err != nil {
		return nil, fmt.Errorf("campaign: golden run %d: %w", i, err)
	}
	rec, err := trace.NewRecorderCap(inst.Bus(), int(cfg.HorizonMs))
	if err != nil {
		return nil, fmt.Errorf("campaign: golden run %d: %w", i, err)
	}
	inst.Kernel().AddPostHook(rec.Hook())
	inst.Kernel().SetBudget(cfg.Budget)
	g := &Golden{times: times, ports: rp.ports}
	if ck, ok := inst.(target.Checkpointable); ok {
		g.snaps = make(map[sim.Millis]*sim.Snapshot, len(times))
		for _, at := range times {
			if err := advanceGolden(inst, i, at); err != nil {
				return nil, err
			}
			snap, err := ck.Checkpoint()
			if err != nil {
				return nil, &GoldenError{Case: i, At: at, Kind: ErrCheckpoint, Detail: err.Error()}
			}
			g.snaps[at] = snap
		}
	}
	if err := advanceGolden(inst, i, cfg.HorizonMs); err != nil {
		return nil, err
	}
	g.Trace = rec.Trace()
	h := sha256.New()
	if _, err := g.Trace.WriteTo(h); err != nil {
		return nil, fmt.Errorf("campaign: hashing golden run %d: %w", i, err)
	}
	g.Digest = hex.EncodeToString(h.Sum(nil))
	g.activity = traceActivity(g.Trace)
	return g, nil
}

// advanceGolden drives an uninjected instance to until, failing on a
// crash or an exhausted budget.
func advanceGolden(inst RunnableInstance, i int, until sim.Millis) error {
	if crashed, pv := runGuarded(inst, until); crashed {
		return &GoldenError{Case: i, At: until, Kind: ErrGoldenCrash, Detail: fmt.Sprint(pv)}
	}
	if k := inst.Kernel(); k.Exhausted() {
		return &GoldenError{Case: i, At: until, Kind: ErrGoldenBudget,
			Detail: fmt.Sprintf("%d steps used — raise Config.Budget or fix the target", k.BudgetUsed())}
	}
	return nil
}

// traceActivity measures, per signal, the fraction of ticks on which
// the signal changed value.
func traceActivity(g *trace.Trace) map[string]float64 {
	out := make(map[string]float64)
	for _, sig := range g.Signals() {
		samples, err := g.Samples(sig)
		if err != nil || len(samples) < 2 {
			continue
		}
		changes := 0
		for i := 1; i < len(samples); i++ {
			if samples[i] != samples[i-1] {
				changes++
			}
		}
		out[sig] = float64(changes) / float64(len(samples)-1)
	}
	return out
}

// Digests returns the per-case trace digests, in TestCases order.
func (s *GoldenSet) Digests() []string {
	out := make([]string, len(s.Cases))
	for i, g := range s.Cases {
		out[i] = g.Digest
	}
	return out
}

// activity averages the per-case activity weights over the test cases
// — the weights the analytical estimator (internal/estimate) sharpens
// its priors with.
func (s *GoldenSet) activity() map[string]float64 {
	acc := make(map[string]float64)
	for _, g := range s.Cases {
		for sig, a := range g.activity {
			acc[sig] += a
		}
	}
	for k := range acc {
		acc[k] /= float64(len(s.Cases))
	}
	return acc
}

// fits reports whether the artifact was computed for a configuration
// shaped like cfg. It cannot see the target's dynamics; callers that
// share artifacts across configurations must key them by something
// that does (internal/runner keys by config digest, which pins every
// trace digest).
func (s *GoldenSet) fits(cfg Config) error {
	times := distinctInstants(cfg.Times)
	ok := len(s.Cases) == len(cfg.TestCases) && len(times) == len(s.times) &&
		s.faultDuration == cfg.FaultDurationMs && s.horizon == cfg.HorizonMs
	for i := 0; ok && i < len(times); i++ {
		ok = times[i] == s.times[i]
	}
	if !ok {
		return invalidf("campaign: the supplied golden artifact was computed for another configuration")
	}
	return nil
}

// golden returns the configuration's artifact: Config.Golden when
// supplied (checked against the configuration's shape), else a fresh
// pass.
func (c Config) golden() (*GoldenSet, error) {
	if c.Golden == nil {
		return ComputeGolden(c)
	}
	if err := c.Golden.fits(c); err != nil {
		return nil, err
	}
	return c.Golden, nil
}

// checkpointable reports whether the pass captured snapshots for every
// test case, failing when only some cases did: the target's instances
// disagree about checkpoint support.
func (s *GoldenSet) checkpointable() (bool, error) {
	if s.Cases[0].snaps == nil {
		return false, nil
	}
	for i, g := range s.Cases {
		if g.snaps == nil {
			return false, &GoldenError{Case: i, At: s.times[0], Kind: ErrNotCheckpointable,
				Detail: "case 0 is checkpointable, this case is not"}
		}
	}
	return true, nil
}

// snapshot returns the checkpoint of one (test case, injection
// instant), or nil when the instant has none.
func (s *GoldenSet) snapshot(caseIdx int, at sim.Millis) *sim.Snapshot {
	return s.Cases[caseIdx].snaps[at]
}

// instant returns the index of at among the distinct injection
// instants.
func (g *Golden) instant(at sim.Millis) (int, bool) {
	i := sort.Search(len(g.times), func(i int) bool { return g.times[i] >= at })
	return i, i < len(g.times) && g.times[i] == at
}

// transient returns the one-shot trap prediction for (port, instant).
func (g *Golden) transient(pk portKey, at sim.Millis) transientPred {
	pp, i, ok := g.port(pk, at)
	if !ok || pp.transient == nil {
		return transientPred{}
	}
	return pp.transient[i]
}

// persistent returns the persistent-window prediction for (port,
// instant).
func (g *Golden) persistent(pk portKey, at sim.Millis) persistentPred {
	pp, i, ok := g.port(pk, at)
	if !ok || pp.persistent == nil {
		return persistentPred{}
	}
	return pp.persistent[i]
}

// fires reports whether a trap armed at (port, instant) can fire under
// the configuration's fault model.
func (g *Golden) fires(pk portKey, at sim.Millis) bool {
	pp, i, ok := g.port(pk, at)
	switch {
	case !ok:
		return false
	case pp.persistent != nil:
		return pp.persistent[i].fires
	default:
		return pp.transient[i].fires
	}
}

func (g *Golden) port(pk portKey, at sim.Millis) (*portPreds, int, bool) {
	pp := g.ports[pk]
	if pp == nil {
		return nil, 0, false
	}
	i, ok := g.instant(at)
	return pp, i, ok
}
