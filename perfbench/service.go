package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ftdag/internal/cluster"
	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/harness"
	"ftdag/internal/journal"
	"ftdag/internal/replica"
	"ftdag/internal/service"
	"ftdag/internal/trace"
)

// The service-routed load. Phase A is open loop at openLoopRate; phase B is
// closed loop with closedLoopWindow jobs outstanding. Both are counted in
// jobs, phaseAJobsPerSecond and phaseBJobsPerSecond per second of --seconds,
// and split evenly over serviceRounds rounds, each on a fresh cluster: the
// service retains every finished job (about half a megabyte each for these
// graphs), so a cluster's heap grows with the number of jobs it has served.
const (
	openLoopRate        = 160.0 // jobs/s, a quarter to a half of phase B's rate on a 2-CPU host
	phaseAJobsPerSecond = 56.0
	phaseBJobsPerSecond = 100.0
	serviceRounds       = 10
	closedLoopWindow    = 16
	warmupJobsPerRound  = 32
	// decorateEvery samples the traced run's jobs whose graphs are
	// decorated: QuickSizes tasks take a few microseconds, so timing every
	// block access of every job would slow the run by about a tenth.
	decorateEvery    = 8
	templateVariants = 16 // seeded fault plans per (app, kind)
	serviceFaults    = 3  // after-compute faults per faulted job
	serviceSDCs      = 2  // silent corruptions per replicated job
	httpTimeout      = 30 * time.Second
)

// Job kinds, one third each.
const (
	kindClean = iota
	kindFaults
	kindSDC
	numKinds
)

// jobTemplate is one prebuilt job: a QuickSizes graph, its reference sink
// and its fault plan.
type jobTemplate struct {
	app       string
	kind      int
	spec      graph.Spec
	retention int
	tasks     int
	ref       []float64
	plan      *fault.Plan
	sdc       int64
}

// buildTemplates builds every (app, kind, variant) job from seed.
func buildTemplates(seed int64) ([]*jobTemplate, error) {
	sizes := harness.QuickSizes()
	for i, name := range dagApps {
		c := sizes[name]
		c.Seed = seed*int64(len(dagApps)) + int64(i)
		sizes[name] = c
	}
	h := harness.New(harness.Options{Sizes: sizes})
	rng := rand.New(rand.NewSource(seed))
	var out []*jobTemplate
	for _, name := range dagApps {
		a := h.App(name)
		spec := a.Spec()
		ref, err := core.NewSequential(spec, a.Retention()).Run()
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		if err := a.VerifySink(ref.Sink); err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		sink := append([]float64(nil), ref.Sink...)
		tasks := h.Props(name).Tasks
		// SDC victims come only from the tasks selective replication
		// covers, so every corruption must be detected.
		var covered []graph.Key
		for _, k := range replica.Select(spec, replica.Policy{Budget: service.DefaultReplicaBudget}).Keys() {
			if k != spec.Sink() {
				covered = append(covered, k)
			}
		}
		for kind := 0; kind < numKinds; kind++ {
			for v := 0; v < templateVariants; v++ {
				t := &jobTemplate{app: name, kind: kind, spec: spec, retention: a.Retention(), tasks: tasks, ref: sink}
				switch kind {
				case kindFaults:
					t.plan = fault.PlanCount(spec, fault.AnyTask, fault.AfterCompute, serviceFaults, rng.Int63())
				case kindSDC:
					t.plan = fault.NewPlan()
					for _, i := range rng.Perm(len(covered))[:serviceSDCs] {
						t.plan.Add(covered[i], fault.SDC, 1)
					}
					t.sdc = serviceSDCs
				}
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// jobBody is the submission body: the template index and the job's number.
type jobBody struct {
	T int `json:"t"`
	N int `json:"n"`
}

// backend is one in-process cluster node: a journaled service behind the
// node's HTTP surface.
type backend struct {
	name string
	dir  string
	srv  *service.Server
	jr   *journal.Journal
	http *http.Server
	url  string
}

// clusterEnv is the set-up of the service-routed workload.
type clusterEnv struct {
	tpls     []*jobTemplate
	backends map[string]*backend
	names    []string
	router   *cluster.Router
	rhttp    *http.Server
	url      string
	client   *http.Client
	lt       *loadTracer
	serveWG  sync.WaitGroup
}

// loadTracer holds the traced run's per-job boundary timings. on switches
// the HTTP middleware, the router transport wrapper and the spec decorator
// together.
type loadTracer struct {
	on atomic.Bool
	lc *layerClock

	mu      sync.Mutex
	specs   map[int]*tracedSpec
	roots   map[int]trace.SpanContext
	build   map[int]time.Duration
	handler map[int]time.Duration
	rt      map[int]time.Duration
}

func newLoadTracer() *loadTracer {
	return &loadTracer{
		lc: newLayerClock(), specs: make(map[int]*tracedSpec), roots: make(map[int]trace.SpanContext),
		build: make(map[int]time.Duration), handler: make(map[int]time.Duration), rt: make(map[int]time.Duration),
	}
}

func (lt *loadTracer) record(m map[int]time.Duration, n int, d time.Duration) trace.SpanContext {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	m[n] = d
	return lt.roots[n]
}

func (lt *loadTracer) root(n int) trace.SpanContext {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.roots[n]
}

// bodyJob decodes the job number of a submission body.
func bodyJob(b []byte) (int, bool) {
	var jb jobBody
	if err := json.Unmarshal(b, &jb); err != nil {
		return 0, false
	}
	return jb.N, true
}

// nodeTimer is middleware around a node's mux: it times the submit handler.
type nodeTimer struct {
	h  http.Handler
	lt *loadTracer
}

func (m nodeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !m.lt.on.Load() || r.Method != http.MethodPost || r.URL.Path != "/jobs" {
		m.h.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	start := time.Now()
	m.h.ServeHTTP(w, r)
	d := time.Since(start)
	if n, ok := bodyJob(body); ok {
		root := m.lt.record(m.lt.handler, n, d)
		m.lt.lc.child(root, "node-submit", int64(n), -1, start, d)
	}
}

// timedTransport wraps the router's client transport: it times the
// router→backend round trip of each submission.
type timedTransport struct {
	base http.RoundTripper
	lt   *loadTracer
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.lt.on.Load() || req.Method != http.MethodPost || req.GetBody == nil {
		return t.base.RoundTrip(req)
	}
	n, ok := -1, false
	if rc, err := req.GetBody(); err == nil {
		if b, err := io.ReadAll(rc); err == nil {
			n, ok = bodyJob(b)
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)
	if ok {
		root := t.lt.record(t.lt.rt, n, d)
		t.lt.lc.child(root, "router-backend", int64(n), -1, start, d)
	}
	return resp, err
}

// build is every node's Build: it turns a submission body into the
// prebuilt job it names, with a fresh copy of the job's fault plan.
func (env *clusterEnv) build(body []byte) (service.JobSpec, error) {
	start := time.Now()
	var jb jobBody
	if err := json.Unmarshal(body, &jb); err != nil {
		return service.JobSpec{}, err
	}
	if jb.T < 0 || jb.T >= len(env.tpls) {
		return service.JobSpec{}, fmt.Errorf("no job template %d", jb.T)
	}
	t := env.tpls[jb.T]
	spec := service.JobSpec{Name: t.app, Spec: t.spec, Retention: t.retention, Plan: t.plan.Clone()}
	if t.kind == kindSDC {
		spec.Recovery = service.RecoverReplicateSelective
		spec.ReplicaBudget = service.DefaultReplicaBudget
	}
	if lt := env.lt; lt != nil && lt.on.Load() && jb.N%decorateEvery == 0 {
		root := lt.root(jb.N)
		ts := newTracedSpec(t.spec, lt.lc, root, int64(jb.N))
		spec.Spec = ts
		lt.mu.Lock()
		lt.specs[jb.N] = ts
		lt.mu.Unlock()
		lt.record(lt.build, jb.N, time.Since(start))
	}
	return spec, nil
}

// startCluster starts two journaled backends, each with nproc/2 workers,
// behind one router, all on loopback.
func startCluster(tpls []*jobTemplate, out string, lt *loadTracer) (env *clusterEnv, err error) {
	env = &clusterEnv{tpls: tpls, backends: make(map[string]*backend), lt: lt}
	defer func() {
		if err != nil {
			env.stop()
		}
	}()
	workers := max(1, nproc()/2)
	for _, name := range []string{"a", "b"} {
		b := &backend{name: name}
		env.backends[name] = b
		env.names = append(env.names, name)
		if b.dir, err = os.MkdirTemp(out, "journal-"+name+"-"); err != nil {
			return env, err
		}
		if b.jr, err = journal.Open(journal.Options{Dir: b.dir}); err != nil {
			return env, err
		}
		b.srv = service.New(service.Config{Workers: workers, Journal: b.jr})
		node := cluster.NewNode(cluster.NodeConfig{Name: name, Service: b.srv, Journal: b.jr, Build: env.build})
		var h http.Handler = node.Mux()
		if lt != nil {
			h = nodeTimer{h: h, lt: lt}
		}
		if b.http, b.url, err = env.serve(h); err != nil {
			return env, err
		}
	}
	var rtTransport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: nproc()}
	if lt != nil {
		rtTransport = timedTransport{base: rtTransport, lt: lt}
	}
	env.router = cluster.NewRouter(cluster.RouterConfig{Client: &http.Client{Timeout: httpTimeout, Transport: rtTransport}})
	for _, name := range env.names {
		if err = env.router.AddBackend(name, env.backends[name].url); err != nil {
			return env, err
		}
	}
	if env.rhttp, env.url, err = env.serve(env.router.Mux()); err != nil {
		return env, err
	}
	env.client = &http.Client{Timeout: httpTimeout, Transport: &http.Transport{
		MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(),
	}}
	return env, nil
}

func (env *clusterEnv) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s := &http.Server{Handler: h}
	env.serveWG.Add(1)
	go func() {
		defer env.serveWG.Done()
		if err := s.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	return s, "http://" + ln.Addr().String(), nil
}

// stop shuts everything down and removes the journals.
func (env *clusterEnv) stop() {
	if env.client != nil {
		env.client.CloseIdleConnections()
	}
	if env.rhttp != nil {
		_ = env.rhttp.Close()
	}
	for _, name := range env.names {
		b := env.backends[name]
		if b.http != nil {
			_ = b.http.Close()
		}
		if b.srv != nil {
			b.srv.Close() // also closes the journal
		} else if b.jr != nil {
			_ = b.jr.Close()
		}
		if b.dir != "" {
			_ = os.RemoveAll(b.dir)
		}
	}
	env.serveWG.Wait()
}

// jobRec is one submitted job as the generator saw it.
type jobRec struct {
	n, t        int // job number, template index
	tpl         *jobTemplate
	due, sent   time.Time
	acked, done time.Time
	h           *service.Handle
	refused     bool
	err         error
	// Filled by verify.
	ok      bool
	res     *core.Result
	st      service.Status
	postDur time.Duration
}

// submit posts one job through the router and, once acknowledged, starts a
// waiter that stamps its completion and calls release.
func (env *clusterEnv) submit(rec *jobRec, wg *sync.WaitGroup, release func()) {
	body := []byte(fmt.Sprintf(`{"t":%d,"n":%d}`, rec.t, rec.n))
	if lt := env.lt; lt != nil && lt.on.Load() {
		lt.mu.Lock()
		lt.roots[rec.n] = lt.lc.root()
		lt.mu.Unlock()
	}
	rec.sent = time.Now()
	rec.h, rec.refused, rec.err = env.post(body)
	rec.acked = time.Now()
	rec.postDur = rec.acked.Sub(rec.sent)
	if rec.h == nil {
		release()
		wg.Done()
		return
	}
	go func() {
		defer wg.Done()
		<-rec.h.Done()
		rec.done = time.Now()
		release()
	}()
}

// post submits body through the router and returns the backend's handle of
// the accepted job.
func (env *clusterEnv) post(body []byte) (*service.Handle, bool, error) {
	resp, err := env.client.Post(env.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	var rs cluster.RoutedStatus
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		return nil, false, fmt.Errorf("decoding router reply (HTTP %d): %w", resp.StatusCode, err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, true, fmt.Errorf("refused: HTTP %d", resp.StatusCode)
	default:
		return nil, false, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	b, ok := env.backends[rs.Backend]
	if !ok {
		return nil, false, fmt.Errorf("router placed the job on unknown backend %q", rs.Backend)
	}
	h, ok := b.srv.Job(rs.BackendID)
	if !ok {
		return nil, false, fmt.Errorf("backend %s has no job %d", rs.Backend, rs.BackendID)
	}
	return h, false, nil
}

// jobSource deals templates in seeded shuffled rounds, so every run of a
// seed submits the same jobs in the same order with the kinds balanced.
type jobSource struct {
	tpls  []*jobTemplate
	rng   *rand.Rand
	order []int
	next  int
}

func (s *jobSource) take(n int) []*jobRec {
	recs := make([]*jobRec, n)
	for i := range recs {
		if len(s.order) == 0 {
			s.order = s.rng.Perm(len(s.tpls))
		}
		recs[i] = &jobRec{n: s.next, t: s.order[0], tpl: s.tpls[s.order[0]]}
		s.order = s.order[1:]
		s.next++
	}
	return recs
}

// openLoop sends recs at rate jobs/s from nproc senders, each job at its
// due time, and waits until all have completed.
func (env *clusterEnv) openLoop(recs []*jobRec, rate float64) {
	var wg sync.WaitGroup
	wg.Add(len(recs))
	t0 := time.Now().Add(10 * time.Millisecond)
	senders := nproc()
	var sendWG sync.WaitGroup
	for k := 0; k < senders; k++ {
		sendWG.Add(1)
		go func(k int) {
			defer sendWG.Done()
			for i := k; i < len(recs); i += senders {
				rec := recs[i]
				rec.due = t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(rec.due); d > 0 {
					time.Sleep(d)
				}
				env.submit(rec, &wg, func() {})
			}
		}(k)
	}
	sendWG.Wait()
	wg.Wait()
}

// closedLoop sends recs from nproc senders with at most window jobs
// outstanding, and returns the time from the first send to the last
// completion.
func (env *clusterEnv) closedLoop(recs []*jobRec, window int) time.Duration {
	var wg sync.WaitGroup
	wg.Add(len(recs))
	sem := make(chan struct{}, window)
	var next atomic.Int64
	start := time.Now()
	senders := nproc()
	var sendWG sync.WaitGroup
	for k := 0; k < senders; k++ {
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				sem <- struct{}{}
				recs[i].due = time.Now()
				env.submit(recs[i], &wg, func() { <-sem })
			}
		}()
	}
	sendWG.Wait()
	wg.Wait()
	var last time.Time
	for _, r := range recs {
		if r.done.After(last) {
			last = r.done
		}
	}
	if last.IsZero() {
		return time.Since(start)
	}
	return last.Sub(start)
}

// verify checks each completed job's sink against its reference bit for
// bit, and a replicated job's SDC accounting; it returns the failures. It
// drops each job's handle, so the jobs a stopped cluster retained can be
// collected.
func verify(recs []*jobRec) int64 {
	var failed int64
	for _, r := range recs {
		if r.h == nil {
			failed++
			continue
		}
		res, err := r.h.Wait()
		r.res, r.st = res, r.h.Status()
		r.h = nil
		r.ok = err == nil && res != nil && sameBits(res.Sink, r.tpl.ref)
		if r.ok && r.tpl.kind == kindSDC {
			m := res.Metrics
			r.ok = m.SDCInjected == r.tpl.sdc && m.SDCDetected == m.SDCInjected && m.SDCMissed == 0
		}
		if !r.ok {
			failed++
		}
	}
	return failed
}

// serviceTotals sums what the program itself counted for a set of jobs.
type serviceTotals struct {
	jobs, verified, tasks int64
	m                     core.Metrics
	evictions             int64
	reexec                []float64
}

func sumJobs(recs []*jobRec) serviceTotals {
	var t serviceTotals
	for _, r := range recs {
		t.jobs++
		if r.ok {
			t.verified++
			t.tasks += int64(r.tpl.tasks)
		}
		if r.res != nil {
			addMetrics(&t.m, r.res.Metrics)
			t.evictions += r.res.Store.Evictions
			t.reexec = append(t.reexec, float64(r.res.ReexecutedTasks))
		}
	}
	return t
}

func (env *clusterEnv) journalStats() (appends, fsyncs int64) {
	for _, name := range env.names {
		s := env.backends[name].jr.Stats()
		appends += s.Appends
		fsyncs += s.Fsyncs
	}
	return appends, fsyncs
}

// serviceRound is what one round on one cluster measured.
type serviceRound struct {
	a, b              []*jobRec
	wallA, wallB      time.Duration
	schedA, schedB    schedDelta
	cpuB              time.Duration
	tracedB           bool
	allocated         uint64
	peak              float64
	appends, fsyncs   int64
	attempted, failed int64
}

// round runs one round on env: warm-up jobs, then nB phase-B jobs closed
// loop, then nA phase-A jobs open loop. The traced run traces phase A, and
// phase B when tracedB is set. Every job is verified before it returns.
func (env *clusterEnv) round(src *jobSource, nA, nB int, tracedB bool) serviceRound {
	rd := serviceRound{tracedB: tracedB}
	setTrace := func(on bool) {
		if env.lt != nil {
			env.lt.on.Store(on)
		}
	}
	setTrace(false)
	warm := src.take(warmupJobsPerRound)
	env.closedLoop(warm, closedLoopWindow)

	probe := startMemProbe()
	a0, f0 := env.journalStats()
	setTrace(tracedB)
	rd.b = src.take(nB)
	s0, c0 := env.schedStats(), cpuTime()
	rd.wallB = env.closedLoop(rd.b, closedLoopWindow)
	rd.cpuB, rd.schedB = cpuTime()-c0, env.schedStats().minus(s0)

	setTrace(true)
	rd.a = src.take(nA)
	s0 = env.schedStats()
	startA := time.Now()
	env.openLoop(rd.a, openLoopRate)
	rd.wallA, rd.schedA = time.Since(startA), env.schedStats().minus(s0)
	setTrace(false)
	rd.allocated, rd.peak = probe.finish()
	a1, f1 := env.journalStats()
	rd.appends, rd.fsyncs = a1-a0, f1-f0

	rd.failed = verify(warm) + verify(rd.b) + verify(rd.a)
	rd.attempted = int64(len(warm) + len(rd.b) + len(rd.a))
	return rd
}

func runService(o options) (*result, error) {
	var lt *loadTracer
	if o.Trace {
		lt = newLoadTracer()
	}
	env, setupS, err := timeSetup(serviceSetupRepeats, func() (*clusterEnv, error) {
		tpls, err := buildTemplates(o.Seed)
		if err != nil {
			return nil, err
		}
		return startCluster(tpls, o.Out, lt)
	}, func(env *clusterEnv) { env.stop() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if env != nil {
			env.stop()
		}
	}()
	tpls := env.tpls

	src := &jobSource{tpls: tpls, rng: rand.New(rand.NewSource(o.Seed))}
	nA := int(math.Ceil(float64(o.Seconds)*phaseAJobsPerSecond)) / serviceRounds
	nB := int(math.Ceil(float64(o.Seconds)*phaseBJobsPerSecond)) / serviceRounds
	res := &result{}

	// Each round runs on a fresh cluster. The service keeps every finished
	// job, so one cluster serving the whole run would grow its heap past a
	// gigabyte and the collections of that heap would decide the tails. An
	// untimed first round of the same size warms the process: its first
	// heap growth and connections ran measurably slower than later rounds.
	// The traced run traces every phase-A part and the phase-B parts of
	// rounds 1 and 2 of every four, so the tracing overhead is measured on
	// interleaved load and a drift over the run cancels.
	var rounds []serviceRound
	for round := -1; round < serviceRounds; round++ {
		if env == nil {
			if env, err = startCluster(tpls, o.Out, lt); err != nil {
				return nil, err
			}
		}
		rd := env.round(src, nA, nB, lt != nil && (round%4 == 1 || round%4 == 2))
		res.Failed += rd.failed
		res.Attempted += rd.attempted
		env.stop()
		env = nil
		if round >= 0 {
			rounds = append(rounds, rd)
		}
	}
	res.Correct = res.Failed == 0

	var phaseA []*jobRec
	var wallA time.Duration
	var schedA, tracedSchedB schedDelta
	var cpuB [2]time.Duration // untraced, traced
	var allocated uint64
	var peaks []float64
	var appends, fsyncs int64
	for _, rd := range rounds {
		phaseA = append(phaseA, rd.a...)
		wallA += rd.wallA
		schedA = schedA.plus(rd.schedA)
		if rd.tracedB {
			cpuB[1] += rd.cpuB
			tracedSchedB = tracedSchedB.plus(rd.schedB)
		} else {
			cpuB[0] += rd.cpuB
		}
		allocated += rd.allocated
		peaks = append(peaks, rd.peak)
		appends += rd.appends
		fsyncs += rd.fsyncs
	}

	var late, ack, sojourn, exec, queue []float64
	var execClean, execFT time.Duration
	var nClean, nFT int
	var refused int64
	for _, r := range phaseA {
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.refused {
			refused++
		}
		if !r.ok {
			continue
		}
		ack = append(ack, ms(r.acked.Sub(r.due)))
		sojourn = append(sojourn, ms(r.done.Sub(r.due)))
		e := r.st.Finished.Sub(r.st.Started)
		exec = append(exec, ms(e))
		queue = append(queue, ms(r.st.Started.Sub(r.st.Submitted)))
		if r.tpl.kind == kindClean {
			execClean += e
			nClean++
		} else {
			execFT += e
			nFT++
		}
	}
	// Phase-B throughput is the median over the untraced rounds of each
	// round's rate, so one round caught by a host stall does not set it.
	var bJobs, tJobs int64
	var bWall, tWall time.Duration
	var jobRates, taskRates []float64
	all := append([]*jobRec(nil), phaseA...)
	for _, rd := range rounds {
		all = append(all, rd.b...)
		t := sumJobs(rd.b)
		for _, r := range rd.b {
			if r.refused {
				refused++
			}
		}
		if rd.tracedB {
			tJobs += t.verified
			tWall += rd.wallB
		} else {
			bJobs += t.verified
			bWall += rd.wallB
			jobRates = append(jobRates, ratio(float64(t.verified), rd.wallB.Seconds()))
			taskRates = append(taskRates, ratio(float64(t.tasks), rd.wallB.Seconds()))
		}
	}
	tot := sumJobs(all)
	fmt.Fprintf(o.Log, "service: %d rounds; phase A %d jobs in %.2fs (open loop %.0f/s, late p99 %.3f ms); phase B %d jobs; failed %d\n",
		serviceRounds, len(phaseA), wallA.Seconds(), openLoopRate, quantile(late, 0.99), nB*serviceRounds, res.Failed)
	fmt.Fprintf(o.Log, "service: phase-B jobs/s per untraced round: %.0f\n", jobRates)

	if !o.Trace {
		executed := tot.m.Computes + tot.m.ShadowComputes
		res.set("setup_s", setupS, "s")
		res.set("tasks_per_s", quantile(taskRates, 0.5), "tasks/s")
		res.set("jobs_per_s", quantile(jobRates, 0.5), "jobs/s")
		// Execution time at phase A's fixed offered load. In phase B the
		// two senders cannot keep the backends' queues full, so how many
		// jobs share a backend's worker, and with it each job's execution
		// time, changes from round to round.
		res.set("solve_ms_p50", quantile(exec, 0.5), "ms")
		res.set("solve_ms_p95", quantile(exec, 0.95), "ms")
		res.set("ft_overhead_ratio", ratio(float64(execFT)/float64(max(nFT, 1)), float64(execClean)/float64(max(nClean, 1))), "ratio")
		res.set("ack_ms_p50", quantile(ack, 0.5), "ms")
		res.set("sojourn_ms_p50", quantile(sojourn, 0.5), "ms")
		res.set("alloc_kb_per_task", ratio(float64(allocated)/1024, float64(executed)), "KiB")
		res.set("heap_mb", quantile(peaks, 0.5)/(1<<20), "MB")
		res.set("verified_share", 1-ratio(float64(res.Failed), float64(res.Attempted)), "fraction")
		fmt.Fprintf(o.Log, "service: n=%d phase-A jobs; p99 ack %.3f ms, p99 sojourn %.3f ms\n",
			len(ack), quantile(ack, 0.99), quantile(sojourn, 0.99))
		return res, checkMetrics(res, endToEnd, false)
	}

	// Per-layer split over the traced jobs: phase A and the traced
	// rounds of phase B.
	traced := append([]*jobRec(nil), phaseA...)
	for _, rd := range rounds {
		if rd.tracedB {
			traced = append(traced, rd.b...)
		}
	}
	tt := sumJobs(traced)
	lt.mu.Lock()
	decorated := 0
	for _, r := range traced {
		if ts, ok := lt.specs[r.n]; ok {
			lt.lc.fold(ts)
			decorated++
		}
	}
	lt.mu.Unlock()
	ct := lt.lc.totals
	// Kernel and block time come from the decorated sample; scale them to
	// all traced jobs for the shares of P × wall.
	scale := ratio(float64(len(traced)), float64(decorated))
	scaled := func(d time.Duration) float64 { return float64(d) * scale }
	sd := schedA.plus(tracedSchedB)
	pWall := time.Duration(nproc()) * (wallA + tWall)
	jobs := float64(tt.jobs)
	var hop, admit []float64
	lt.mu.Lock()
	for _, r := range traced {
		if d, ok := lt.rt[r.n]; ok {
			hop = append(hop, ms(r.postDur-d))
		}
		if d, ok := lt.handler[r.n]; ok {
			admit = append(admit, ms(d-lt.build[r.n]))
		}
	}
	lt.mu.Unlock()
	for _, r := range traced {
		if r.st.Submitted.IsZero() { // refused: never admitted
			continue
		}
		root := lt.root(r.n)
		lt.lc.endRoot(root, "job", r.tpl.app, int64(r.n), r.due, r.done.Sub(r.due))
		lt.lc.child(root, "queue", int64(r.n), -1, r.st.Submitted, r.st.Started.Sub(r.st.Submitted))
		lt.lc.child(root, "exec", int64(r.n), -1, r.st.Started, r.st.Finished.Sub(r.st.Started))
	}
	res.set("apps.kernel_ms_per_graph", ratio(ms(ct.kernel), float64(decorated)), "ms")
	res.set("apps.kernel_share", ratio(scaled(ct.kernel), float64(pWall)), "fraction")
	res.set("block.read_share", ratio(scaled(ct.read), float64(pWall)), "fraction")
	res.set("block.write_share", ratio(scaled(ct.write), float64(pWall)), "fraction")
	res.set("sched.idle_share", ratio(float64(sd.idle), float64(pWall)), "fraction")
	res.set("core.other_share", ratio(float64(pWall)-scaled(ct.kernel+ct.read+ct.write)-float64(sd.idle), float64(pWall)), "fraction")
	res.set("block.write_ns_per_kib", ratio(float64(ct.write), float64(ct.writeBytes)/1024), "ns/KiB")
	res.set("block.read_ns_per_kib", ratio(float64(ct.read), float64(ct.readBytes)/1024), "ns/KiB")
	res.set("block.evictions_per_graph", ratio(float64(tt.evictions), jobs), "count")
	res.set("core.notifications_per_task", ratio(float64(tt.m.Notifications), float64(tt.m.Computes)), "count")
	res.set("core.reexec_per_graph_p50", quantile(tt.reexec, 0.5), "count")
	res.set("core.useful_ratio", ratio(float64(tt.tasks), float64(tt.m.Computes)), "fraction")
	res.set("core.recoveries_per_graph", ratio(float64(tt.m.Recoveries), jobs), "count")
	res.set("core.resets_per_graph", ratio(float64(tt.m.Resets), jobs), "count")
	res.set("fault.fired_per_graph", ratio(float64(tt.m.InjectionsFired+tt.m.SDCInjected), jobs), "count")
	res.set("sched.steals_per_graph", ratio(float64(sd.steals), jobs), "count")
	res.set("sched.failed_steal_ratio", ratio(float64(sd.failedSteals), float64(sd.steals+sd.failedSteals)), "fraction")
	res.set("sched.parks_per_job", ratio(float64(sd.parks), jobs), "count")
	res.set("sched.injector_hits_per_job", ratio(float64(sd.injectorHits), jobs), "count")
	res.set("cluster.router_hop_ms_p50", quantile(hop, 0.5), "ms")
	res.set("cluster.refused", float64(refused), "count")
	res.set("service.admit_ms_p50", quantile(admit, 0.5), "ms")
	res.set("service.admit_ms_p99", quantile(admit, 0.99), "ms")
	res.set("journal.fsync_batch", ratio(float64(appends), float64(fsyncs)), "ratio")
	res.set("journal.appends_per_job", ratio(float64(appends), float64(len(all))), "count")
	res.set("service.queue_wait_ms_p50", quantile(queue, 0.5), "ms")
	res.set("service.queue_wait_ms_p99", quantile(queue, 0.99), "ms")
	res.set("service.exec_ms_p50", quantile(exec, 0.5), "ms")
	res.set("replica.shadow_computes_per_job", ratio(float64(tt.m.ShadowComputes), jobs), "count")
	res.set("replica.sdc_detected_ratio", ratio(float64(tt.m.SDCDetected), float64(tt.m.SDCInjected)), "fraction")
	// The phase-A tails are reported here, without a bound: a p99 rests on
	// the 14 slowest of 1400 jobs, those a host stall caught.
	res.set("gen.ack_ms_p99", quantile(ack, 0.99), "ms")
	res.set("gen.sojourn_ms_p99", quantile(sojourn, 0.99), "ms")
	res.set("gen.late_ms_p99", quantile(late, 0.99), "ms")
	// Process CPU per job, traced over untraced rounds: at saturation the
	// throughput follows it, and it does not swing with the host the way
	// a one-second wall-clock throughput does.
	res.set("trace.overhead_ratio", ratio(ratio(float64(cpuB[1]), float64(tJobs)), ratio(float64(cpuB[0]), float64(bJobs))), "ratio")
	fmt.Fprintf(o.Log, "service: phase-B throughput traced %.1f jobs/s, untraced %.1f jobs/s\n", ratio(float64(tJobs), tWall.Seconds()), ratio(float64(bJobs), bWall.Seconds()))
	if err := microBenches(res, true, o.Out); err != nil {
		return nil, err
	}
	if err := checkMetrics(res, perLayer, true); err != nil {
		return nil, err
	}
	path, err := lt.lc.writePerfetto(o.Out, o.Workload, o.Seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "service: traced %d of %d jobs; spans written to %s\n", len(traced), len(all), path)
	printLayerTable(o.Log, res, pWall)
	return res, nil
}

// schedDelta is the part of the backends' pool counters a phase accounts
// for.
type schedDelta struct {
	steals, failedSteals, parks, injectorHits int64
	idle                                      time.Duration
}

func (env *clusterEnv) schedStats() schedDelta {
	var d schedDelta
	for _, name := range env.names {
		s := env.backends[name].srv.Snapshot().Sched
		d.steals += s.Steals
		d.failedSteals += s.FailedSteals
		d.parks += s.Parks
		d.injectorHits += s.InjectorHits
		d.idle += s.IdleTime
	}
	return d
}

func (a schedDelta) minus(b schedDelta) schedDelta {
	return schedDelta{a.steals - b.steals, a.failedSteals - b.failedSteals, a.parks - b.parks, a.injectorHits - b.injectorHits, a.idle - b.idle}
}

func (a schedDelta) plus(b schedDelta) schedDelta {
	return schedDelta{a.steals + b.steals, a.failedSteals + b.failedSteals, a.parks + b.parks, a.injectorHits + b.injectorHits, a.idle + b.idle}
}
