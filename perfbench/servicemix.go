package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"propane/internal/campaign"
	"propane/internal/distrib"
	"propane/internal/runner"
	"propane/internal/service"
	"propane/internal/store"
	"propane/internal/synth"
)

// The service-mixed workload: an open loop of independent tenants
// submitting quick-tier campaigns to the multi-tenant service, which
// runs them on a shared two-worker fleet backed by a persistent memo
// store.

const (
	mixTenants = 4
	// Submission kinds.
	kindFresh    = "fresh"    // a newly generated topology document
	kindRepeat   = "repeat"   // an exact repeat of an earlier document
	kindRegistry = "registry" // a registry instance
	// arrivalJitter spreads each arrival uniformly over this share of
	// the gap between scheduled sends, centred on its slot.
	arrivalJitter = 0.8
	// watchFallback is how often the completion watcher looks at the
	// outstanding campaigns when the service logs nothing; each
	// lifecycle line it logs, a campaign's completion among them, wakes
	// the watcher at once. Polling every few milliseconds instead cost
	// 35 ms of processor time per second of an idle service.
	watchFallback = 50 * time.Millisecond
	// drainLimit bounds the wait for outstanding campaigns after the
	// last scheduled submission.
	drainLimit = 90 * time.Second
)

// arrival is one scheduled submission.
type arrival struct {
	at     time.Duration
	tenant string
	kind   string
	req    service.SubmitRequest
	// key identifies the expected outcome: a registry reference key, or
	// the document's index for generated topologies.
	key string
}

// mixSchedule draws the seeded arrival schedule: mixRate sends per
// second over window, each jittered within its slot, from a seeded tenant.
// Every block of len(serviceMix) consecutive arrivals is a seeded shuffle
// of serviceMix, so the kinds keep their shares over any window.
func mixSchedule(seed int64, window time.Duration) ([]arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(window.Seconds() * mixRate)
	gap := float64(time.Second) / mixRate
	var out []arrival
	var docs []string
	var block []string
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			block = append(block, serviceMix...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[0]
		block = block[1:]
		a := arrival{
			at:     time.Duration((float64(i) + 0.5 + (rng.Float64()-0.5)*arrivalJitter) * gap),
			tenant: fmt.Sprintf("tenant-%d", rng.Intn(mixTenants)),
		}
		switch {
		case kind == kindFresh || (kind == kindRepeat && len(docs) == 0):
			doc, err := synth.GenerateTopology(seed*1_000_003 + int64(len(docs))).Serialize()
			if err != nil {
				return nil, err
			}
			a.kind = kindFresh
			a.key = fmt.Sprintf("doc-%d", len(docs))
			a.req = service.SubmitRequest{Document: string(doc), Tier: string(runner.TierQuick)}
			docs = append(docs, string(doc))
		case kind == kindRepeat:
			d := rng.Intn(len(docs))
			a.kind = kindRepeat
			a.key = fmt.Sprintf("doc-%d", d)
			a.req = service.SubmitRequest{Document: docs[d], Tier: string(runner.TierQuick)}
		default:
			a.kind = kindRegistry
			a.key = refKey(kind, runner.TierQuick, false)
			a.req = service.SubmitRequest{Instance: kind, Tier: string(runner.TierQuick)}
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, errors.New("the schedule holds no submissions; raise -seconds")
	}
	return out, nil
}

// fleetService is a running service with its store, HTTP server and
// loopback fleet.
type fleetService struct {
	st     *store.Store
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	url    string
	watch  *httpWatch
	memo   *memoWatch
	// wake is signalled whenever the service logs a lifecycle line.
	wake chan struct{}

	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

// openService starts the service, its store and a two-worker fleet
// under dir.
func openService(dir string, traced bool) (*fleetService, error) {
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	wake := make(chan struct{}, 1)
	svc, err := service.Open(service.Options{
		Dir:   filepath.Join(dir, "service"),
		Store: st,
		Logf: func(string, ...any) {
			select {
			case wake <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		st.Close()
		return nil, err
	}
	fs := &fleetService{st: st, svc: svc, served: make(chan struct{}), url: "http://" + l.Addr().String(), wake: wake}
	fs.watch = newHTTPWatch(svc.Handler(), traced)
	fs.srv = distrib.NewServer(fs.watch)
	go func() {
		defer close(fs.served)
		_ = fs.srv.Serve(l)
	}()
	var memo runner.MemoStore = st
	if traced {
		fs.memo = &memoWatch{next: st}
		memo = fs.memo
	}
	ctx, cancel := context.WithCancel(context.Background())
	fs.cancel = cancel
	for i := 0; i < maxWorkers; i++ {
		fs.wg.Add(1)
		go func(i int) {
			defer fs.wg.Done()
			err := distrib.RunWorkerContext(ctx, fs.url, distrib.WorkerOptions{
				Name:    fmt.Sprintf("w%d", i+1),
				Dir:     filepath.Join(dir, "workers"),
				Workers: 1,
				Memo:    memo,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				fs.mu.Lock()
				fs.errs = append(fs.errs, err)
				fs.mu.Unlock()
			}
		}(i)
	}
	return fs, nil
}

// close stops the fleet, the service, the server and the store, and
// returns any worker failure.
func (fs *fleetService) close() error {
	fs.cancel()
	fs.wg.Wait()
	errs := append([]error(nil), fs.errs...)
	errs = append(errs, fs.svc.Close())
	_ = fs.srv.Close()
	<-fs.served
	errs = append(errs, fs.st.Close())
	return errors.Join(errs...)
}

// submission is one arrival's fate.
type submission struct {
	arrival
	id       string
	sent     time.Time
	acked    time.Time // the acceptance reply arrived
	refused  bool
	rejected error // a non-429 refusal
	info     service.CampaignInfo
	observed time.Time
	result   *campaign.Result
}

// mixRun is one pass over the schedule.
type mixRun struct {
	subs      []*submission
	loadStart time.Time
	lagMs     []float64
	allocMB   float64
	// cpu is the processor time the pass used, from opening the
	// service to the last result read.
	cpu time.Duration
	fs  *fleetService
	dir string
	// util samples the fleet's utilisation during a traced pass.
	util []float64
	// firstRecord is the traced pass's first settled run.
	firstRecord time.Duration
}

// runMix opens a fresh service under dir, plays the schedule against
// it, and waits for every accepted campaign to finish.
func runMix(cfg config, sched []arrival, dir string, traced bool) (*mixRun, error) {
	start := time.Now()
	cpu0 := cpuTime()
	before := readRuntime()
	fs, err := openService(dir, traced)
	if err != nil {
		return nil, err
	}
	m := &mixRun{fs: fs, dir: dir}
	stopUtil := make(chan struct{})
	utilDone := make(chan struct{})
	if traced {
		first := watchFirstRecord(filepath.Join(dir, "workers"), start, cpu0)
		defer func() {
			first.stop()
			m.firstRecord = first.elapsed()
		}()
		go func() {
			defer close(utilDone)
			m.util = sampleServiceUtilization(fs.svc, stopUtil)
		}()
	} else {
		close(utilDone)
	}
	runErr := m.play(sched)
	close(stopUtil)
	<-utilDone
	if runErr == nil {
		for _, s := range m.subs {
			if s.info.State == service.StateDone {
				rr, ok := fs.svc.Result(s.id)
				if !ok {
					runErr = fmt.Errorf("campaign %s is done but has no result", s.id)
					break
				}
				s.result = rr.Result
			}
		}
	}
	m.cpu = cpuTime() - cpu0
	after := readRuntime()
	m.allocMB = (after.allocBytes - before.allocBytes) / 1e6
	if err := fs.close(); runErr == nil {
		runErr = err
	}
	return m, runErr
}

// play sends every arrival at its scheduled time over one connection
// and watches the accepted campaigns until each is done or failed.
func (m *mixRun) play(sched []arrival) error {
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	accepted := make(chan *submission, len(sched)) // sized to the schedule: the submitter never blocks
	stop := make(chan struct{})
	m.loadStart = time.Now()
	var sendErr error
	go func() {
		defer close(accepted)
		for _, a := range sched {
			due := m.loadStart.Add(a.at)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			s := &submission{arrival: a, sent: time.Now()}
			m.lagMs = append(m.lagMs, float64(s.sent.Sub(due))/1e6)
			m.subs = append(m.subs, s)
			if err := m.submit(client, s); err != nil {
				sendErr = err
				return
			}
			if s.id != "" {
				accepted <- s
			}
		}
	}()

	// On every return the submitter is stopped and has exited.
	defer func() {
		close(stop)
		for range accepted {
		}
	}()

	deadline := m.loadStart.Add(sched[len(sched)-1].at + drainLimit)
	var outstanding []*submission
	incoming := accepted // nil once the submitter is done
	tick := time.NewTicker(watchFallback)
	defer tick.Stop()
	for incoming != nil || len(outstanding) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d campaigns still unfinished %s after the last submission", len(outstanding), drainLimit)
		}
		now := time.Now()
		kept := outstanding[:0]
		for _, s := range outstanding {
			info, ok := m.fs.svc.Campaign(s.id)
			if ok && (info.State == service.StateDone || info.State == service.StateFailed) {
				s.info, s.observed = info, now
				continue
			}
			kept = append(kept, s)
		}
		outstanding = kept
		select {
		case s, ok := <-incoming:
			if !ok {
				incoming = nil
				continue
			}
			outstanding = append(outstanding, s)
		case <-m.fs.wake:
		case <-tick.C:
		}
	}
	return sendErr
}

// sampleServiceUtilization polls the share of fleet workers holding a
// lease, summed over the service's campaigns, every 100 ms until stop
// closes.
func sampleServiceUtilization(svc *service.Service, stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			leased := 0
			for _, cm := range svc.Metrics() {
				leased += cm.UnitsLeased
			}
			out = append(out, min(1, float64(leased)/maxWorkers))
		}
	}
}

// submit posts one campaign as its tenant.
func (m *mixRun) submit(client *http.Client, s *submission) error {
	body, err := json.Marshal(s.req)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, m.fs.url+service.PathCampaigns, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(distrib.HeaderTenant, s.tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("submitting: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var info service.CampaignInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			return fmt.Errorf("decoding submission reply: %w", err)
		}
		s.id, s.acked = info.ID, time.Now()
	case http.StatusTooManyRequests:
		s.refused = true
	default:
		s.rejected = fmt.Errorf("submission answered %s", resp.Status)
	}
	return nil
}

// verify checks every finished campaign: a registry instance against
// its reference, a generated document against the first execution of
// the same document. It counts failures and mismatches on rep.
func (m *mixRun) verify(cfg config, rep *report, pass string) {
	first := make(map[string]string)
	for i, s := range m.subs {
		rep.attempted++
		what := fmt.Sprintf("%s submission %d (%s %s)", pass, i, s.kind, s.key)
		switch {
		case s.refused || s.rejected != nil || s.info.State != service.StateDone:
			rep.failed++
			continue
		case s.kind == kindRegistry:
			if !cfg.refs.check(rep, what, s.key, resultDigest(s.result), "") {
				rep.failed++
			}
			continue
		}
		got := resultDigest(s.result)
		want, seen := first[s.key]
		if !seen {
			first[s.key] = got
			continue
		}
		if got != want {
			rep.mismatch("%s: result digest %.12s, first execution %.12s", what, got, want)
			rep.failed++
		}
	}
}

// turnarounds returns the completed submissions' turnaround times,
// from the scheduled send time to the observed completion, and how
// many met the latency limit.
func (m *mixRun) turnarounds(limit time.Duration) (ts []float64, met int) {
	for _, s := range m.subs {
		if s.info.State != service.StateDone {
			continue
		}
		t := s.observed.Sub(m.loadStart.Add(s.at))
		ts = append(ts, t.Seconds())
		if t <= limit {
			met++
		}
	}
	return ts, met
}

// logKinds logs the turnaround quantiles of each submission kind.
func (m *mixRun) logKinds() {
	byKind := make(map[string][]float64)
	for _, s := range m.subs {
		if s.info.State == service.StateDone {
			k := s.kind
			if k == kindRegistry {
				k = s.req.Instance
			}
			byKind[k] = append(byKind[k], s.observed.Sub(m.loadStart.Add(s.at)).Seconds()*1e3)
		}
	}
	for _, k := range append([]string{kindFresh, kindRepeat}, registryInstances()...) {
		ts := byKind[k]
		log.Printf("%-9s %3d done, turnaround p10 %.1f ms, p50 %.1f ms, p90 %.1f ms",
			k, len(ts), quantile(ts, 0.1), quantile(ts, 0.5), quantile(ts, 0.9))
	}
}

// cpuPerCampaign returns the pass's processor time per completed
// submission.
func (m *mixRun) cpuPerCampaign() float64 {
	done := 0
	for _, s := range m.subs {
		if s.info.State == service.StateDone {
			done++
		}
	}
	if done == 0 {
		return 0
	}
	return m.cpu.Seconds() / float64(done)
}

// campaignTimes returns the completed submissions' times from the
// service's acceptance reply to the observed completion.
func (m *mixRun) campaignTimes() []float64 {
	var out []float64
	for _, s := range m.subs {
		if s.info.State == service.StateDone {
			out = append(out, s.observed.Sub(s.acked).Seconds())
		}
	}
	return out
}

// busyRate returns the settled runs of the completed submissions per
// second of busy time: the time during which at least one submission
// was sent and not yet observed done.
func (m *mixRun) busyRate() float64 {
	type span struct{ from, to time.Time }
	var spans []span
	runs := 0
	for _, s := range m.subs {
		if s.result != nil {
			spans = append(spans, span{s.sent, s.observed})
			runs += s.result.Runs
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from.Before(spans[j].from) })
	var busy time.Duration
	var end time.Time
	for _, sp := range spans {
		if sp.from.After(end) {
			busy += sp.to.Sub(sp.from)
			end = sp.to
		} else if sp.to.After(end) {
			busy += sp.to.Sub(end)
			end = sp.to
		}
	}
	if busy <= 0 {
		return 0
	}
	return float64(runs) / busy.Seconds()
}

// probeServiceSetup opens a fresh service and fleet, submits one
// registry campaign and returns the wall-clock and processor time from
// opening to the campaign's first settled run.
func probeServiceSetup(dir string) (wall, cpu float64, err error) {
	start := time.Now()
	cpu0 := cpuTime()
	fs, err := openService(dir, false)
	if err != nil {
		return 0, 0, err
	}
	first := watchFirstRecord(filepath.Join(dir, "workers"), start, cpu0)
	_, err = fs.svc.Submit("tenant-0", service.SubmitRequest{Instance: registryInstances()[0], Tier: string(runner.TierQuick)})
	if err == nil {
		select {
		case <-first.found:
		case <-time.After(drainLimit):
			err = errors.New("no run settled")
		}
	}
	first.stop()
	wall, cpu = first.elapsed().Seconds(), first.cpuUsed().Seconds()
	if cerr := fs.close(); err == nil {
		err = cerr
	}
	return wall, cpu, err
}

// serviceMixed is the workload entry point.
func serviceMixed(cfg config) (*report, error) {
	rep := &report{}
	sched, err := mixSchedule(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS()
	m, err := runMix(cfg, sched, filepath.Join(cfg.work, "mix"), false)
	peak := rss.peakMB()
	if err != nil {
		return nil, err
	}
	m.verify(cfg, rep, "untraced")
	ts, met := m.turnarounds(serviceSLO)
	m.logKinds()

	var setups, setupCPUs []float64
	for i := 0; i < serviceSetupProbes; i++ {
		wall, cpu, err := probeServiceSetup(filepath.Join(cfg.work, fmt.Sprintf("probe-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i, err)
		}
		setups = append(setups, wall)
		setupCPUs = append(setupCPUs, cpu)
	}
	log.Printf("set-up probes: p10 %.2f ms, p50 %.2f ms, p90 %.2f ms; processor p50 %.2f ms",
		quantile(setups, 0.1)*1e3, median(setups)*1e3, quantile(setups, 0.9)*1e3, median(setupCPUs)*1e3)
	log.Printf("mix pass: %.3f s processor over %d submissions", m.cpu.Seconds(), len(m.subs))

	rep.set("setup_s", median(setupCPUs))
	rep.set("campaign_cpu_s", m.cpuPerCampaign())
	rep.set("setup_wall_s", median(setups))
	// The mean, not the median: the turnaround quantiles already read
	// the distribution's middle and tail, and a campaign's mean time
	// carries the cost of every kind in the mix.
	rep.set("campaign_s", mean(m.campaignTimes()))
	rep.set("runs_per_s", m.busyRate())
	rep.set("turnaround_p50_s", quantile(ts, 0.5))
	rep.set("turnaround_p90_s", quantile(ts, 0.9))
	rep.set("ok_frac", 1-float64(rep.failed)/float64(rep.attempted))
	rep.set("alloc_mb", m.allocMB)
	rep.set("peak_rss_mb", peak)
	if !cfg.trace {
		return rep, nil
	}

	// Traced pass: the same schedule against a fresh service, from the
	// state the untraced pass started from.
	rss = sampleRSS()
	rt0 := readRuntime()
	tm, err := runMix(cfg, sched, filepath.Join(cfg.work, "traced"), true)
	rt1 := readRuntime()
	rss.peakMB()
	if err != nil {
		return nil, err
	}
	tm.verify(cfg, rep, "traced")
	rep.setGoLayer(rt0, rt1)
	rep.set("trace_overhead_frac", tm.cpuPerCampaign()/m.cpuPerCampaign()-1)
	// The untraced pass's attainment: the figure a user would see.
	rep.set("slo_attainment", float64(met)/float64(len(m.subs)))
	rep.set("campaign.first_record_s", tm.firstRecord.Seconds())

	var results []*campaign.Result
	var waits, execs, lags []float64
	for _, s := range tm.subs {
		if s.result == nil {
			continue
		}
		results = append(results, s.result)
		waits = append(waits, float64(s.info.StartedMs-s.info.SubmittedMs)/1e3)
		execs = append(execs, float64(s.info.DoneMs-s.info.StartedMs)/1e3)
		lags = append(lags, float64(s.observed.UnixMilli()-s.info.DoneMs))
	}
	setCampaignCounts(rep, results)
	tm.fs.watch.setDistribLayer(rep)
	units, jobs := 0, 0
	for _, cm := range tm.fs.svc.Metrics() {
		units += cm.UnitsDone
		jobs += cm.DoneRuns
	}
	rep.set("distrib.units_done", float64(units))
	perUnit := 0.0
	if units > 0 {
		perUnit = float64(jobs) / float64(units)
	}
	rep.set("distrib.jobs_per_unit", perUnit)
	rep.set("distrib.fleet_utilization_mean", mean(tm.util))
	setStoreLayer(rep, tm.fs.memo)
	rep.set("service.queue_wait_s_p50", quantile(waits, 0.5))
	rep.set("service.queue_wait_s_p90", quantile(waits, 0.9))
	rep.set("service.exec_s_p50", quantile(execs, 0.5))
	rep.set("service.exec_s_p90", quantile(execs, 0.9))
	rep.set("service.notify_lag_ms_p50", quantile(lags, 0.5))
	rep.set("loadgen.submitted", float64(len(tm.subs)))
	rep.set("loadgen.lag_p90_ms", quantile(tm.lagMs, 0.9))
	if err := probeJournal(rep, filepath.Join(tm.dir, "service"), cfg.work); err != nil {
		return nil, err
	}
	if err := probeGoldenPass(rep, registryInstances()[0], runner.TierQuick); err != nil {
		return nil, err
	}
	if err := probeSimAndTrace(rep); err != nil {
		return nil, err
	}
	rep.set("failed_frac", float64(rep.failed)/float64(rep.attempted))
	return rep, nil
}
