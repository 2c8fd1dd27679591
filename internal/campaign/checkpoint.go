package campaign

// Checkpoint fast-forward. A campaign's injection runs are dominated
// by redundant simulation: all 16 bit positions (and every error
// model) injected at the same (test case, instant) re-execute an
// identical pre-injection prefix from t=0, and that prefix is by
// construction bit-identical to the uninjected golden run — a trap
// has no effect before its arm time. When the target implements
// target.Checkpointable, the case's single golden pass (golden.go)
// therefore pauses at every injection instant to record a snapshot,
// and every injection run restores the snapshot for its instant and
// simulates only [At, horizon). The stream comparator is seeked to the
// checkpoint tick, so results — diffs, outcomes, latencies, hang trip
// points — are bit-identical to a full replay.

// CheckpointMode selects whether injection runs fast-forward from
// per-(test case, injection instant) snapshots instead of replaying
// from t=0.
type CheckpointMode int

const (
	// CheckpointAuto (the default) fast-forwards when the target
	// supports it and no Instrument hook is configured. Instrument
	// attachments (runtime monitors, recovery mechanisms) observe the
	// run from tick 0, so fast-forwarding past the prefix could change
	// what they see; auto mode conservatively falls back to full
	// replay for them.
	CheckpointAuto CheckpointMode = iota
	// CheckpointOff always replays from t=0.
	CheckpointOff
	// CheckpointForce fast-forwards even with an Instrument hook
	// configured — for instrumentation that only wraps per-run
	// bookkeeping (e.g. internal/runner's timing wrapper) and does not
	// observe simulation state before the injection instant. Targets
	// that are not checkpointable still fall back to full replay.
	CheckpointForce
)

// checkpointsAllowed decides whether this campaign's mode permits
// fast-forward. Whether the target supports it is read off the golden
// artifact (GoldenSet.checkpointable), so the fallback to full replay
// is transparent to callers.
func (c Config) checkpointsAllowed() bool {
	switch c.Checkpoints {
	case CheckpointOff:
		return false
	case CheckpointAuto:
		return c.Instrument == nil
	}
	return true
}
