package campaign

import (
	"errors"
	"testing"

	"propane/internal/arrestor"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/trace"
)

// wrappedArrestor is tinyConfig on a custom target whose instances
// wrap pass through wrap, given the test-case index.
func wrappedArrestor(wrap func(caseIdx int, inst *arrestor.Instance) RunnableInstance) Config {
	cfg := tinyConfig()
	cases := cfg.TestCases
	cfg.Custom = &Target{
		Name:     "wrapped-arrestor",
		Topology: arrestor.Topology,
		New: func(tc physics.TestCase, hook sim.ReadHook) (RunnableInstance, error) {
			inst, err := arrestor.NewInstance(arrestor.DefaultConfig(), tc, hook)
			if err != nil {
				return nil, err
			}
			ci := 0
			for i, c := range cases {
				if c == tc {
					ci = i
				}
			}
			return wrap(ci, inst), nil
		},
	}
	return cfg
}

// plainInstance hides the arrestor's checkpoint support.
type plainInstance struct{ RunnableInstance }

// crashingInstance panics once driven past crashAt.
type crashingInstance struct {
	*arrestor.Instance
	crashAt sim.Millis
}

func (c crashingInstance) Run(until sim.Millis) {
	if until > c.crashAt {
		panic("sensor driver fault")
	}
	c.Instance.Run(until)
}

// failingCheckpoint cannot capture its state.
type failingCheckpoint struct{ *arrestor.Instance }

func (failingCheckpoint) Checkpoint() (*sim.Snapshot, error) {
	return nil, errors.New("hidden state not serialisable")
}

// TestGoldenErrorsTyped: every check the golden pass makes surfaces
// from a campaign as a typed *GoldenError naming the case.
func TestGoldenErrorsTyped(t *testing.T) {
	budget := tinyConfig()
	budget.Budget = sim.Budget{Steps: 100}
	mixed := wrappedArrestor(func(ci int, inst *arrestor.Instance) RunnableInstance {
		if ci == 1 {
			return plainInstance{inst}
		}
		return inst
	})
	mixed.Checkpoints = CheckpointForce
	cases := map[string]struct {
		cfg  Config
		kind error
		at   sim.Millis
	}{
		"crash": {
			cfg: wrappedArrestor(func(_ int, inst *arrestor.Instance) RunnableInstance {
				return crashingInstance{inst, 2000}
			}),
			kind: ErrGoldenCrash, at: 3500,
		},
		"budget": {cfg: budget, kind: ErrGoldenBudget, at: 1500},
		"checkpoint": {
			cfg: wrappedArrestor(func(_ int, inst *arrestor.Instance) RunnableInstance {
				return failingCheckpoint{inst}
			}),
			kind: ErrCheckpoint, at: 1500,
		},
		"mixed checkpoint support": {cfg: mixed, kind: ErrNotCheckpointable, at: 1500},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if !errors.Is(err, tc.kind) {
				t.Fatalf("Run returned %v, want %v", err, tc.kind)
			}
			var ge *GoldenError
			if !errors.As(err, &ge) {
				t.Fatalf("%v is not a *GoldenError", err)
			}
			if ge.At != tc.at {
				t.Errorf("error names t=%d, want t=%d", ge.At, tc.at)
			}
			if name == "mixed checkpoint support" && ge.Case != 1 {
				t.Errorf("error names case %d, want case 1", ge.Case)
			}
		})
	}
}

// TestGoldenFallsBackWithoutCheckpoints: a target with no checkpoint
// support at all still runs under CheckpointForce, replaying from t=0,
// with the checkpointed campaign's result.
func TestGoldenFallsBackWithoutCheckpoints(t *testing.T) {
	base, baseRecs := runKeyed(t, tinyConfig())
	cfg := wrappedArrestor(func(_ int, inst *arrestor.Instance) RunnableInstance { return plainInstance{inst} })
	cfg.Checkpoints = CheckpointForce
	gs, err := ComputeGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := gs.checkpointable(); ok || err != nil {
		t.Fatalf("checkpointable() = %t, %v for a target without checkpoint support", ok, err)
	}
	res, recs := runKeyed(t, cfg)
	assertEquivalent(t, base, res, baseRecs, recs)
}

// TestGoldenPassObservesOnly: the single golden pass — recorder, read
// hook and the pauses at every instant — records exactly the trace of
// a bare run, and each snapshot equals one taken by a bare instance
// driven to that instant.
func TestGoldenPassObservesOnly(t *testing.T) {
	for name, cfg := range map[string]Config{"arrestor": tinyConfig(), "hostile": hostileConfig(t)} {
		gs, err := ComputeGolden(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ci, tc := range cfg.TestCases {
			g := gs.Cases[ci]
			bare, err := cfg.NewInstance(tc, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := trace.NewRecorderCap(bare.Bus(), int(cfg.HorizonMs))
			if err != nil {
				t.Fatal(err)
			}
			bare.Kernel().AddPostHook(rec.Hook())
			bare.Kernel().SetBudget(cfg.Budget)
			bare.Run(cfg.HorizonMs)
			diffs, err := trace.Compare(rec.Trace(), g.Trace)
			if err != nil {
				t.Fatal(err)
			}
			for sig, d := range diffs {
				if d.Differs() {
					t.Errorf("%s case %d: golden trace of %s differs from a bare run", name, ci, sig)
				}
			}
			for _, at := range cfg.Times {
				inst, err := cfg.NewInstance(tc, nil)
				if err != nil {
					t.Fatal(err)
				}
				inst.Kernel().SetBudget(cfg.Budget)
				inst.Run(at)
				want, err := inst.(interface {
					Checkpoint() (*sim.Snapshot, error)
				}).Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if got := gs.snapshot(ci, at); got == nil || !snapshotsEqual(got, want, true) {
					t.Errorf("%s case %d: snapshot at t=%d differs from a bare instance's", name, ci, at)
				}
			}
		}
	}
}

// TestGoldenSupplied: a campaign handed its artifact through
// Config.Golden runs no golden pass and produces the same result; an
// artifact of a differently shaped configuration is refused.
func TestGoldenSupplied(t *testing.T) {
	cfg := tinyConfig()
	base, baseRecs := runKeyed(t, cfg)
	gs, err := ComputeGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Golden = gs
	before := GoldenPasses()
	res, recs := runKeyed(t, cfg)
	if n := GoldenPasses() - before; n != 0 {
		t.Errorf("a campaign with a supplied artifact ran %d golden passes", n)
	}
	assertEquivalent(t, base, res, baseRecs, recs)

	other := tinyConfig()
	other.Times = []sim.Millis{1500, 2500}
	other.Golden = gs
	if _, err := Run(other); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("artifact of other instants accepted: %v", err)
	}
}
