package runner

import (
	"container/list"
	"fmt"
	"sync"

	"propane/internal/campaign"
)

// The golden table. Every consumer of a campaign's uninjected
// reference — Describe, Run (one per distributed work unit), Assemble
// and the coordinator's adaptive planner — needs the same
// campaign.GoldenSet. The table shares one per configuration across
// the process, keyed by config digest: the digest pins the plan, the
// budget and every golden trace digest, so an entry can only ever
// serve the configuration that produced it. An instance name would
// not do: Unregister and a re-Register under the same name can swap
// the target's dynamics while the name — and every non-golden
// snapshot field — stays the same.

// defaultGoldenEntries bounds the table (configurations,
// LRU-recycled), so a long-lived service running many campaigns holds
// at most this many artifacts.
const defaultGoldenEntries = 8

// goldens is the process-wide table.
var goldens = newGoldenTable(defaultGoldenEntries)

// goldenTable is a bounded, singleflight, LRU table of golden
// artifacts keyed by config digest.
type goldenTable struct {
	mu      sync.Mutex
	bound   int
	entries map[string]*list.Element
	order   *list.List // of *goldenEntry, front = most recently used
}

// goldenEntry is one digest's artifact; ready closes once set or err
// is final, so concurrent first lookups wait for one pass.
type goldenEntry struct {
	digest string
	ready  chan struct{}
	set    *campaign.GoldenSet
	err    error
}

func newGoldenTable(bound int) *goldenTable {
	return &goldenTable{bound: bound, entries: make(map[string]*list.Element), order: list.New()}
}

// lookup returns the artifact under digest, running compute on a
// miss. Concurrent lookups of one digest share a single compute; a
// failed compute is dropped from the table, so a later lookup retries.
func (t *goldenTable) lookup(digest string, compute func() (*campaign.GoldenSet, error)) (*campaign.GoldenSet, error) {
	t.mu.Lock()
	if el, ok := t.entries[digest]; ok {
		t.order.MoveToFront(el)
		e := el.Value.(*goldenEntry)
		t.mu.Unlock()
		<-e.ready
		return e.set, e.err
	}
	e := &goldenEntry{digest: digest, ready: make(chan struct{})}
	t.insertLocked(e)
	t.mu.Unlock()

	defer close(e.ready)
	e.set, e.err = compute()
	if e.err != nil {
		t.mu.Lock()
		if el, ok := t.entries[digest]; ok && el.Value == e {
			t.order.Remove(el)
			delete(t.entries, digest)
		}
		t.mu.Unlock()
	}
	return e.set, e.err
}

// put publishes an artifact computed outside lookup. An entry already
// present (or in flight) under the digest is kept: it holds identical
// content.
func (t *goldenTable) put(digest string, set *campaign.GoldenSet) {
	e := &goldenEntry{digest: digest, ready: make(chan struct{}), set: set}
	close(e.ready)
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[digest]; ok {
		t.order.MoveToFront(el)
		return
	}
	t.insertLocked(e)
}

func (t *goldenTable) insertLocked(e *goldenEntry) {
	t.entries[e.digest] = t.order.PushFront(e)
	for t.order.Len() > t.bound {
		back := t.order.Back()
		t.order.Remove(back)
		delete(t.entries, back.Value.(*goldenEntry).digest)
	}
}

// resolveGolden returns a prepared configuration's golden artifact and
// its frozen config snapshot. With opts.ConfigDigest set it looks the
// artifact up under that digest, running the pass only on a miss, and
// fails with ErrDigestMismatch when this configuration digests
// differently — a mismatching artifact is never published. Without
// it, the pass always runs and its artifact is published under the
// digest it produces.
func resolveGolden(cfg campaign.Config, opts Options, planSize int) (*campaign.GoldenSet, snapshot, error) {
	freeze := func(gs *campaign.GoldenSet) (snapshot, error) {
		snap, err := newSnapshot(opts.Name, opts.Tier, cfg, planSize, gs.Digests())
		if err == nil && opts.ConfigDigest != "" && snap.Digest != opts.ConfigDigest {
			err = fmt.Errorf("runner: %s/%s digests to config %s in this process, not the expected %s — version skew: %w",
				opts.Name, opts.Tier, snap.Digest, opts.ConfigDigest, ErrDigestMismatch)
		}
		return snap, err
	}
	if opts.ConfigDigest == "" {
		gs, err := campaign.ComputeGolden(cfg)
		if err != nil {
			return nil, snapshot{}, err
		}
		snap, err := freeze(gs)
		if err != nil {
			return nil, snapshot{}, err
		}
		goldens.put(snap.Digest, gs)
		return gs, snap, nil
	}
	gs, err := goldens.lookup(opts.ConfigDigest, func() (*campaign.GoldenSet, error) {
		gs, err := campaign.ComputeGolden(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := freeze(gs); err != nil {
			return nil, err
		}
		return gs, nil
	})
	if err != nil {
		return nil, snapshot{}, err
	}
	// A hit was computed from whichever configuration first produced
	// the digest; this one must digest identically to share it.
	snap, err := freeze(gs)
	if err != nil {
		return nil, snapshot{}, err
	}
	return gs, snap, nil
}
