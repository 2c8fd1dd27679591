package trace

import (
	"sync"

	"propane/internal/sim"
)

// Scratch-buffer pooling for the campaign hot path. Every injection
// run needs a StreamComparator, whose handles, golden-sample and diff
// slices are identical in shape from run to run, so comparators are
// recycled through a sync.Pool. Acquire falls back to a fresh
// construction whenever the pooled comparator's shape does not match
// the requested bus/trace, so callers never observe a difference from
// NewStreamComparator.

var comparatorPool = sync.Pool{New: func() any { return nil }}

// AcquireStreamComparator returns a comparator of the given bus
// against the golden trace, recycling a pooled one when its shape
// matches. Release it with ReleaseStreamComparator once its diffs have
// been copied out and the instance holding its hook is discarded.
func AcquireStreamComparator(golden *Trace, bus *sim.Bus) (*StreamComparator, error) {
	if c, _ := comparatorPool.Get().(*StreamComparator); c != nil && c.rebind(golden, bus) {
		return c, nil
	}
	// Shape mismatch (or empty pool): build fresh; a half-rebound
	// comparator is simply dropped.
	return NewStreamComparator(golden, bus)
}

// ReleaseStreamComparator recycles a comparator obtained from
// AcquireStreamComparator (or NewStreamComparator). The caller must
// not touch it afterwards; any kernel still holding its Hook must be
// discarded with it.
func ReleaseStreamComparator(c *StreamComparator) {
	if c != nil {
		comparatorPool.Put(c)
	}
}

// rebind points a used comparator at a new bus and golden trace,
// resetting all comparison state. It reports false when the pooled
// shape does not match — mixed-topology processes (e.g. the test
// suite) then fall back to a fresh construction.
func (c *StreamComparator) rebind(golden *Trace, bus *sim.Bus) bool {
	names := golden.signals
	busNames := bus.Names()
	if len(busNames) != len(names) || len(c.handles) != len(names) {
		return false
	}
	for i, n := range names {
		if busNames[i] != n {
			return false
		}
		s, err := bus.Lookup(n)
		if err != nil {
			return false
		}
		c.handles[i] = s
		c.samples[i] = golden.samples[n]
		c.diffs[i] = Diff{Signal: n, First: -1, Last: -1}
	}
	c.golden = golden
	c.tol = nil
	c.tick = 0
	return true
}
