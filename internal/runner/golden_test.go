package runner

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"propane/internal/campaign"
)

// TestGoldenSharedByDigest: Describe publishes the golden artifact
// under its digest, so Run, Assemble and Golden handed that digest run
// no golden pass and still produce the bit-identical campaign; a wrong
// digest fails with ErrDigestMismatch before any file is written.
func TestGoldenSharedByDigest(t *testing.T) {
	info, err := DescribeInstance("reduced", TierQuick, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := t.TempDir()
	if _, err := RunInstance("reduced", TierQuick, Options{Dir: plain}); err != nil {
		t.Fatal(err)
	}

	before := campaign.GoldenPasses()
	shared := t.TempDir()
	if _, err := RunInstance("reduced", TierQuick, Options{Dir: shared, ConfigDigest: info.Digest}); err != nil {
		t.Fatal(err)
	}
	def, err := Lookup("reduced")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Name: "reduced", Tier: TierQuick, Dir: shared, ConfigDigest: info.Digest}
	if _, err := Assemble(cfg, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Golden(cfg, opts); err != nil {
		t.Fatal(err)
	}
	if n := campaign.GoldenPasses() - before; n != 0 {
		t.Errorf("Run, Assemble and Golden given a held digest ran %d golden passes, want 0", n)
	}
	want, err := os.ReadFile(filepath.Join(plain, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(shared, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("the run sharing the described artifact reported differently from a plain run")
	}

	bad := filepath.Join(t.TempDir(), "skewed")
	_, err = RunInstance("reduced", TierQuick, Options{Dir: bad, ConfigDigest: strings.Repeat("0", 64)})
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("run under a foreign digest returned %v, want ErrDigestMismatch", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("a digest mismatch still created the artifact directory (stat: %v)", err)
	}
}

// TestGoldenConcurrentFirstLookups: concurrent first lookups of one
// digest share a single pass.
func TestGoldenConcurrentFirstLookups(t *testing.T) {
	info, err := DescribeInstance("reduced", TierQuick, Options{})
	if err != nil {
		t.Fatal(err)
	}
	held := goldens
	goldens = newGoldenTable(defaultGoldenEntries)
	t.Cleanup(func() { goldens = held })
	def, err := Lookup("reduced")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}

	before := campaign.GoldenPasses()
	const callers = 8
	sets := make([]*campaign.GoldenSet, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sets[i], errs[i] = Golden(cfg, Options{Name: "reduced", Tier: TierQuick, ConfigDigest: info.Digest})
		}(i)
	}
	wg.Wait()
	for i := range sets {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		if sets[i] != sets[0] {
			t.Errorf("lookup %d got a different artifact than lookup 0", i)
		}
	}
	if n, want := campaign.GoldenPasses()-before, int64(info.Cases); n != want {
		t.Errorf("%d concurrent first lookups ran %d golden passes, want one per case (%d)", callers, n, want)
	}
}

// TestGoldenTableBound pins the table's contract: the entry bound
// holds, eviction drops the least recently used digest, a hit never
// recomputes, and a failed compute is not cached.
func TestGoldenTableBound(t *testing.T) {
	tbl := newGoldenTable(2)
	computes := 0
	compute := func() (*campaign.GoldenSet, error) {
		computes++
		return &campaign.GoldenSet{}, nil
	}
	a, _ := tbl.lookup("a", compute)
	tbl.lookup("b", compute)
	if got, _ := tbl.lookup("a", compute); got != a || computes != 2 {
		t.Fatalf("hit on a recomputed (%d computes) or changed the artifact", computes)
	}
	tbl.put("c", &campaign.GoldenSet{}) // b is least recently used
	if n := tbl.order.Len(); n != 2 {
		t.Fatalf("table holds %d entries, bound is 2", n)
	}
	if got, _ := tbl.lookup("a", compute); got != a {
		t.Error("a evicted despite a refreshing lookup")
	}
	tbl.lookup("b", compute)
	if computes != 3 {
		t.Errorf("b served without recomputing after its eviction (%d computes)", computes)
	}

	boom := errors.New("boom")
	if _, err := tbl.lookup("d", func() (*campaign.GoldenSet, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed compute returned %v", err)
	}
	if _, err := tbl.lookup("d", compute); err != nil {
		t.Errorf("a failed compute was cached: %v", err)
	}
}
