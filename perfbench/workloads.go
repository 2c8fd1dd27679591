package main

import (
	"sort"
	"time"

	"propane/internal/runner"
)

// workloads maps each workload name to its run.
var workloads = map[string]func(config) (*report, error){
	"paper-adaptive-fleet": fleetWorkload,
	"service-mixed":        serviceMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scale selects paper-adaptive-fleet's campaign: fullScale is the
// benchmark, testScale the smoke-test size.
type scale struct {
	paperInstance string
	paperTier     runner.Tier
}

var (
	fullScale = scale{paperInstance: "paper", paperTier: runner.TierFull}
	testScale = scale{paperInstance: "reduced", paperTier: runner.TierQuick}
)

const (
	// setupSamples is the fewest set-up samples a paper-adaptive-fleet
	// run takes; serviceSetupProbes is service-mixed's count, larger
	// because its set-up lasts tens of milliseconds.
	setupSamples       = 7
	serviceSetupProbes = 51
	// serviceSLO is the latency limit of one service submission.
	serviceSLO = 2 * time.Second
	// mixRate is service-mixed's arrival rate per second, about a
	// fifth of the service's capacity for this mix on two cores. At
	// higher rates more cheap campaigns wait behind an autobrake one,
	// which moves the median turnaround into a sparse queueing tail
	// where its sampling error grows, and a slower host multiplies the
	// queueing.
	mixRate = 4
)

// serviceMix is the service-mixed block: an even split of the three
// submission kinds — fresh documents, exact repeats and registry
// instances — with the registry share split evenly between reduced and
// autobrake (quick tier).
var serviceMix = []string{
	kindFresh, kindFresh,
	kindRepeat, kindRepeat,
	"reduced", "autobrake",
}

// registryInstances lists the registry instances of the service mix,
// in mix order; the first also seeds the service set-up probes.
func registryInstances() []string {
	var out []string
	seen := make(map[string]bool)
	for _, k := range serviceMix {
		if k != kindFresh && k != kindRepeat && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
