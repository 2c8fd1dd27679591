package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"propane/internal/campaign"
	propreport "propane/internal/report"
	"propane/internal/runner"
)

// refJSON holds the reference digests, computed by -write-refs from
// single-node runs of the current code.
//
//go:embed ref.json
var refJSON []byte

// refEntry is one campaign's expected outcome.
type refEntry struct {
	// Result is resultDigest of the campaign result.
	Result string `json:"result"`
	// Records is runner.RecordSetDigest of the journaled record set.
	Records string `json:"records"`
}

// refs maps refKey strings to expected outcomes.
type refs map[string]refEntry

func loadRefs() (refs, error) {
	var r refs
	if err := json.Unmarshal(refJSON, &r); err != nil {
		return nil, fmt.Errorf("decoding ref.json: %w", err)
	}
	return r, nil
}

// refKey names a campaign configuration: registry instance, tier and
// whether adaptive sampling (at the default ε) decides the job set.
func refKey(instance string, tier runner.Tier, adaptive bool) string {
	mode := "full-matrix"
	if adaptive {
		mode = "adaptive"
	}
	return fmt.Sprintf("%s/%s/%s", instance, tier, mode)
}

// referenceCampaigns lists every configuration a workload (at full or
// test scale) checks against a reference.
func referenceCampaigns() []refCampaign {
	var out []refCampaign
	seen := make(map[string]bool)
	add := func(c refCampaign) {
		if k := refKey(c.instance, c.tier, c.adaptive); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	for _, sc := range []scale{fullScale, testScale} {
		add(refCampaign{sc.paperInstance, sc.paperTier, true})
	}
	for _, inst := range registryInstances() {
		add(refCampaign{inst, runner.TierQuick, false})
	}
	return out
}

type refCampaign struct {
	instance string
	tier     runner.Tier
	adaptive bool
}

// resultDigest fingerprints what the bit-identity contract covers: the
// permeability matrix, every pair's and location's statistics, the run
// counts and the adaptive spending. Pruning labels are excluded —
// pruned, memoised and executed runs carry identical outcomes.
func resultDigest(res *campaign.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nruns=%d unfired=%d crashes=%d hangs=%d quarantined=%d\n",
		propreport.MatrixCSV(res.Matrix), res.Runs, res.Unfired, res.Crashes, res.Hangs, len(res.Quarantined))
	enc := json.NewEncoder(h)
	// Encoding plain data structs cannot fail; a hash.Hash never
	// returns a write error.
	_ = enc.Encode(res.Pairs)
	_ = enc.Encode(res.Locations)
	_ = enc.Encode(res.Adaptive)
	return hex.EncodeToString(h.Sum(nil))
}

// journalDigest is the record-set digest of the single journal under
// an artifact directory (a runner run or a coordinator).
func journalDigest(dir string) (string, int, error) {
	_, recs, err := runner.ReadJournal(runner.ShardJournalPath(dir, 0, 1))
	if err != nil {
		return "", 0, err
	}
	return runner.RecordSetDigest(recs), len(recs), nil
}

// check compares a finished campaign with its reference, recording a
// mismatch on rep. records is skipped when empty.
func (r refs) check(rep *report, what, key, result, records string) bool {
	want, ok := r[key]
	switch {
	case !ok:
		rep.mismatch("%s: no reference for %s", what, key)
	case want.Result != result:
		rep.mismatch("%s: result digest %.12s, reference %.12s (%s)", what, result, want.Result, key)
	case records != "" && want.Records != records:
		rep.mismatch("%s: record-set digest %.12s, reference %.12s (%s)", what, records, want.Records, key)
	default:
		return true
	}
	return false
}

// writeReferences runs every reference configuration single-node and
// writes their digests to path.
func writeReferences(work, path string, log io.Writer) error {
	out := make(refs)
	for i, c := range referenceCampaigns() {
		dir := filepath.Join(work, fmt.Sprintf("ref-%d", i))
		opts := runner.Options{Dir: dir, Workers: maxWorkers}
		if c.adaptive {
			opts.Adaptive = campaign.AdaptiveForce
		}
		rr, err := runner.RunInstance(c.instance, c.tier, opts)
		if err != nil {
			return fmt.Errorf("reference %s: %w", refKey(c.instance, c.tier, c.adaptive), err)
		}
		recs, n, err := journalDigest(dir)
		if err != nil {
			return err
		}
		key := refKey(c.instance, c.tier, c.adaptive)
		out[key] = refEntry{Result: resultDigest(rr.Result), Records: recs}
		fmt.Fprintf(log, "reference %s: %d records\n", key, n)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
