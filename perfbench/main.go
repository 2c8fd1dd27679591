// Command perfbench is propane's benchmark. It runs one named workload
// against the system's public entry points (the distrib coordinator
// and worker, the multi-tenant service), checks every result against
// its reference (single-node runner.RunInstance runs, or a document's
// first execution), and prints the end-to-end
// metrics — or, with -trace 1, the per-layer metrics — as one JSON
// object on the last line of standard output:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"campaign_cpu_s": {"value": 13.9, "unit": "s"}, ...}}
//
// run.sh builds it from the checkout and runs it:
//
//	bash perfbench/run.sh --workload paper-adaptive-fleet --seed 1 --seconds 40 --trace 0
//
// BENCHMARK.json at the repository root declares the workloads and
// metrics; LAYERS.md in this directory says which end-to-end metric
// each per-layer metric should move, on which workload. A result that
// differs from its reference makes the command exit 1 after printing.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// work is the scratch directory every run artifact goes under.
	work string
	// scale selects the campaign sizes; tests shrink it.
	scale scale
	// refs holds the expected result digests.
	refs refs
}

// report is what one workload run measured.
type report struct {
	attempted, failed int
	// mismatches describes every result that differed from its
	// reference; any entry makes the run incorrect.
	mismatches []string
	metrics    map[string]float64
	// host is stamped onto the human-readable output.
	host hostFacts
}

func (r *report) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]float64)
	}
	r.metrics[name] = v
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var mm errMismatch
		if errors.As(err, &mm) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// errMismatch reports a completed run whose results were wrong; its
// metrics were printed.
type errMismatch struct{ n int }

func (e errMismatch) Error() string {
	return fmt.Sprintf("%d result(s) differ from their reference", e.n)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := fs.Float64("seconds", 40, "how long the measured phase runs")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	writeRefs := fs.Bool("write-refs", false, "recompute ref.json from single-node reference runs and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "work-")
	if err != nil {
		return fmt.Errorf("creating scratch dir: %w", err)
	}
	defer os.RemoveAll(work)

	if *writeRefs {
		return writeReferences(work, filepath.Join(*root, "perfbench", "ref.json"), stderr)
	}
	w, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	rs, err := loadRefs()
	if err != nil {
		return err
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		work:     work,
		scale:    fullScale,
		refs:     rs,
	}
	rep, err := w(cfg)
	if err != nil {
		return err
	}
	rep.host = stampHost(cfg.seed)
	return emit(rep, cfg.trace, stdout)
}

// emit prints the host stamp and a human-readable metric table, then
// the result JSON as the last line.
func emit(rep *report, traced bool, stdout io.Writer) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	res := result{
		Correct:   len(rep.mismatches) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	var missing []string
	for _, d := range want {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload did not measure %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return errors.New("workload attempted nothing")
	}
	stamp, err := json.Marshal(rep.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", stamp)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	if _, ok := res.Metrics["failed_frac"]; !ok {
		fmt.Fprintf(stdout, "%-36s %16.6g fraction\n", "failed_frac", float64(rep.failed)/float64(rep.attempted))
	}
	if !traced {
		// The wall-clock figures the untraced pass measured anyway; they
		// are per-layer metrics and stay out of the result line.
		for _, d := range wallClock {
			if v, ok := rep.metrics[d.name]; ok {
				fmt.Fprintf(stdout, "%-36s %16.6g %s (wall clock, unbounded)\n", d.name, v, d.unit)
			}
		}
	}
	fmt.Fprintf(stdout, "%d of %d operations failed\n", rep.failed, rep.attempted)
	for _, m := range rep.mismatches {
		fmt.Fprintf(stdout, "MISMATCH %s\n", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errMismatch{len(rep.mismatches)}
	}
	return nil
}
