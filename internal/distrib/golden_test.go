package distrib

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"propane/internal/campaign"
	"propane/internal/runner"
)

// TestGoldenOnePassPerCase: an adaptive loopback fleet campaign —
// coordinator, two workers, several units, adaptive planner and
// Assemble — runs exactly one golden pass per test case, and still
// assembles the single-node result.
func TestGoldenOnePassPerCase(t *testing.T) {
	adaptiveBaseline(t) // the reference's own passes stay out of the count
	info, err := runner.DescribeInstance("reduced", runner.TierQuick, runner.Options{Adaptive: campaign.AdaptiveForce})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	before := campaign.GoldenPasses()
	rr, err := Loopback(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    4,
		Adaptive: campaign.AdaptiveForce,
		Logf:     t.Logf,
	}, 2, WorkerOptions{BatchSize: 8, PollInterval: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n, want := campaign.GoldenPasses()-before, int64(info.Cases); n != want {
		t.Errorf("fleet campaign ran %d golden passes, want one per case (%d)", n, want)
	}
	assertMatchesAdaptiveBaseline(t, rr, dir)
}

// goldenDoc is a small quick tier of the DSL arrestor; slew selects
// PRES_A's slew limit, which changes the target's dynamics and nothing
// else the config digest records.
func goldenDoc(t *testing.T, slew string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "synth", "arrestor.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for old, repl := range map[string]string{
		"n_mass: 2\n      n_vel: 2\n      mass_lo: 8000": "n_mass: 1\n      n_vel: 2\n      mass_lo: 8000",
		"times_ms: [1000, 2500, 4000]":                   "times_ms: [1000, 4000]",
		"bits: [0, 5, 10, 15]":                           "bits: [0, 15]",
		"max_slew: 2048":                                 "max_slew: " + slew,
	} {
		if !strings.Contains(doc, old) {
			t.Fatalf("examples/synth/arrestor.yaml no longer contains %q", old)
		}
		doc = strings.Replace(doc, old, repl, 1)
	}
	return []byte(doc)
}

// TestGoldenReregisteredDocument: one worker serves a campaign of a
// document, the document is unregistered and re-registered under the
// same name with different dynamics, and the same worker serves the
// new campaign. The second campaign must neither trip a spurious
// version-skew error (a name-keyed cache would still hold the first
// campaign's digest) nor run on the first document's golden artifact:
// it assembles exactly what a single-node run of the new document
// produces.
func TestGoldenReregisteredDocument(t *testing.T) {
	const name = "golden-reregistered"
	t.Cleanup(func() { runner.Unregister(name) })
	opts := WorkerOptions{Name: "steady", Dir: t.TempDir(), BatchSize: 8, Logf: t.Logf}
	if err := opts.normalise(); err != nil {
		t.Fatal(err)
	}
	w := newWorker(context.Background(), "", opts)

	var digests []string
	for _, slew := range []string{"2048", "512"} {
		runner.Unregister(name)
		def, err := runner.LoadSynthBytes(goldenDoc(t, slew), name)
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Register(def); err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(Config{Instance: name, Tier: runner.TierQuick, Dir: t.TempDir(), Units: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		url, srv := serveCoordinator(t, coord)
		w.base = url
		serveUnits(t, w)
		rr, err := coord.Assemble()
		srv.Close()
		coord.Close()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := runner.RunInstance(name, runner.TierQuick, runner.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		gm, gr, gu := fingerprint(rr)
		wm, wr, wu := fingerprint(direct)
		if gm != wm || gr != wr || gu != wu {
			t.Errorf("max_slew %s: fleet result differs from the single-node run of the same document", slew)
		}
		digests = append(digests, coord.info.Digest)
	}
	if digests[0] == digests[1] {
		t.Fatal("the two documents digest identically — the test no longer changes the dynamics")
	}
}

// serveUnits leases and runs units with w until its coordinator
// reports the campaign done.
func serveUnits(t *testing.T, w *worker) {
	t.Helper()
	for {
		var lr LeaseResponse
		if err := w.post(PathLease, LeaseRequest{Worker: w.opts.Name}, &lr); err != nil {
			t.Fatal(err)
		}
		switch lr.Status {
		case StatusDone:
			return
		case StatusUnit:
			if err := w.runUnit(lr); err != nil {
				t.Fatal(err)
			}
		default:
			time.Sleep(time.Duration(lr.RetryMs)*time.Millisecond + 10*time.Millisecond)
		}
	}
}
