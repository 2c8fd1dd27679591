package main

import (
	"io"
	"net/http"
	"sync"
	"time"

	"propane/internal/campaign"
	"propane/internal/distrib"
	"propane/internal/runner"
	"propane/internal/service"
)

// httpWatch wraps a coordinator's or service's HTTP handler. When
// traced it keeps per-route call counts, latencies, uploaded bytes and
// error counts; untraced it only passes requests on.
type httpWatch struct {
	next   http.Handler
	traced bool

	mu     sync.Mutex
	routes map[string]*routeStats
	errors int
}

type routeStats struct {
	calls int
	bytes int64
	ms    []float64
	// rejected counts 429 answers (admission refusals).
	rejected int
}

func newHTTPWatch(next http.Handler, traced bool) *httpWatch {
	return &httpWatch{next: next, traced: traced, routes: make(map[string]*routeStats)}
}

// route names the request for the per-route tables.
func route(r *http.Request) string {
	switch r.URL.Path {
	case distrib.PathLease:
		return "lease"
	case distrib.PathRecords:
		return "records"
	case distrib.PathHeartbeat:
		return "heartbeat"
	case distrib.PathComplete:
		return "complete"
	case service.PathCampaigns:
		if r.Method == http.MethodPost {
			return "submit"
		}
	}
	return "other"
}

func (h *httpWatch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.traced {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	name := route(r)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	var body *countingReader
	if r.Body != nil {
		body = &countingReader{r: r.Body}
		r.Body = body
	}
	h.next.ServeHTTP(sw, r)
	now := time.Now()
	ok := sw.status >= 200 && sw.status < 300
	h.mu.Lock()
	defer h.mu.Unlock()
	rs := h.routes[name]
	if rs == nil {
		rs = &routeStats{}
		h.routes[name] = rs
	}
	rs.calls++
	rs.ms = append(rs.ms, float64(now.Sub(t0))/1e6)
	if body != nil {
		rs.bytes += body.n
	}
	switch {
	case sw.status == http.StatusTooManyRequests && name == "submit":
		rs.rejected++
	case !ok && name != "submit" && name != "other":
		h.errors++
	}
}

// statusWriter records the reply status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// setDistribLayer records the per-route tables.
func (h *httpWatch) setDistribLayer(rep *report) {
	h.mu.Lock()
	defer h.mu.Unlock()
	get := func(name string) *routeStats {
		if rs := h.routes[name]; rs != nil {
			return rs
		}
		return &routeStats{}
	}
	lease, recs, comp := get("lease"), get("records"), get("complete")
	rep.set("distrib.lease.calls", float64(lease.calls))
	rep.set("distrib.lease.hold_ms_p50", quantile(lease.ms, 0.5))
	rep.set("distrib.lease.hold_ms_p90", quantile(lease.ms, 0.9))
	rep.set("distrib.records.calls", float64(recs.calls))
	rep.set("distrib.records.bytes", float64(recs.bytes))
	rep.set("distrib.records.ms_p50", quantile(recs.ms, 0.5))
	rep.set("distrib.complete.calls", float64(comp.calls))
	rep.set("distrib.complete.ms_p50", quantile(comp.ms, 0.5))
	rep.set("distrib.heartbeat.calls", float64(get("heartbeat").calls))
	rep.set("distrib.http_errors", float64(h.errors))
	sub := get("submit")
	rep.set("service.submit_ms_p50", quantile(sub.ms, 0.5))
	rep.set("service.submit_ms_p90", quantile(sub.ms, 0.9))
	rep.set("service.rejected", float64(sub.rejected))
}

// memoWatch wraps the memo store handed to workers, timing every
// lookup and insert.
type memoWatch struct {
	next runner.MemoStore

	mu    sync.Mutex
	hits  int
	getUs []float64
	putUs []float64
}

func (m *memoWatch) GetMemo(scope string, k campaign.MemoKey) (campaign.MemoEntry, bool) {
	t0 := time.Now()
	e, ok := m.next.GetMemo(scope, k)
	us := float64(time.Since(t0)) / 1e3
	m.mu.Lock()
	m.getUs = append(m.getUs, us)
	if ok {
		m.hits++
	}
	m.mu.Unlock()
	return e, ok
}

func (m *memoWatch) PutMemo(scope string, k campaign.MemoKey, e campaign.MemoEntry) {
	t0 := time.Now()
	m.next.PutMemo(scope, k, e)
	us := float64(time.Since(t0)) / 1e3
	m.mu.Lock()
	m.putUs = append(m.putUs, us)
	m.mu.Unlock()
}

// setStoreLayer records the memo-store tables (zero without a store).
func setStoreLayer(rep *report, m *memoWatch) {
	if m == nil {
		m = &memoWatch{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ratio := 0.0
	if len(m.getUs) > 0 {
		ratio = float64(m.hits) / float64(len(m.getUs))
	}
	rep.set("store.get.calls", float64(len(m.getUs)))
	rep.set("store.get.hit_ratio", ratio)
	rep.set("store.get_us_p50", quantile(m.getUs, 0.5))
	rep.set("store.put.calls", float64(len(m.putUs)))
	rep.set("store.put_us_p50", quantile(m.putUs, 0.5))
}

// setCampaignCounts records the outcome-label counts of a set of
// campaign results.
func setCampaignCounts(rep *report, results []*campaign.Result) {
	var settled, executed, unfired, noop, memo, store, converged, population, scheduled int
	for _, res := range results {
		settled += res.Runs
		p := res.Pruning
		executed += p.Executed
		unfired += p.Unfired
		noop += p.NoOp
		memo += p.Memoized
		store += p.Store
		converged += p.Converged
		if res.Adaptive != nil {
			population += res.Adaptive.Population
			scheduled += res.Adaptive.Scheduled
		}
	}
	rep.set("campaign.runs_settled", float64(settled))
	rep.set("campaign.runs_executed", float64(executed))
	rep.set("campaign.pruned_unfired", float64(unfired))
	rep.set("campaign.pruned_noop", float64(noop))
	rep.set("campaign.memo_hits", float64(memo))
	rep.set("campaign.memo_store_hits", float64(store))
	rep.set("campaign.converged", float64(converged))
	ratio := 0.0
	if settled > 0 {
		ratio = float64(executed) / float64(settled)
	}
	rep.set("campaign.executed_ratio", ratio)
	sampled := 0.0
	if population > 0 {
		sampled = float64(scheduled) / float64(population)
	}
	rep.set("campaign.adaptive_sampled_ratio", sampled)
}

// zeroLayers sets every listed metric to zero: layers a workload does
// not reach.
func zeroLayers(rep *report, names ...string) {
	for _, n := range names {
		rep.set(n, 0)
	}
}
