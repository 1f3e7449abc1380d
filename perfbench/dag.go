package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/fault"
	"ftdag/internal/graph"
	"ftdag/internal/harness"
	"ftdag/internal/sched"
	"ftdag/internal/trace"
)

// dagApps is the fixed round-robin order of the five kernels.
var dagApps = []string{"LCS", "SW", "FW", "LU", "Cholesky"}

// Rounds (one FT and one NABBIT solve of each app) per second of --seconds,
// so that a run is counted in graphs and every commit solves the same
// graphs. dag-recover runs more rounds: its solve times spread wider, and
// its p95 needs the samples.
const (
	solveRoundsPerSecond   = 1.6
	recoverRoundsPerSecond = 2.4
)

// plansPerApp is how many distinct seeded fault plans dag-recover cycles
// through per app: one per round at 25 s. A graph's recovery cost depends
// strongly on where its faults land (SW's after-notify cascades re-execute
// from a few hundred to a few thousand tasks), so a run averages over many
// plans rather than repeating a few.
const plansPerApp = 60

// solveTimeout is the hang watchdog for one solve; a solve that hits it
// counts as failed.
const solveTimeout = 20 * time.Second

// dagInput is one graph with its reference output and fault plans.
type dagInput struct {
	name      string
	spec      graph.Spec
	retention int
	tasks     int
	ref       []float64
	plans     []*fault.Plan // dag-recover only
}

// buildDAGInputs builds the five BenchSizes graphs from seed, computes each
// reference sink once (sequential run plus the app's own VerifySink), and,
// for dag-recover, the seeded fault plans.
func buildDAGInputs(seed int64, recover bool) ([]*dagInput, error) {
	sizes := harness.BenchSizes()
	for i, name := range dagApps {
		c := sizes[name]
		c.Seed = seed*int64(len(dagApps)) + int64(i)
		sizes[name] = c
	}
	h := harness.New(harness.Options{Sizes: sizes})
	var ins []*dagInput
	for i, name := range dagApps {
		a := h.App(name)
		in := &dagInput{name: name, spec: a.Spec(), retention: a.Retention(), tasks: h.Props(name).Tasks}
		ref, err := core.NewSequential(in.spec, in.retention).Run()
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		if err := a.VerifySink(ref.Sink); err != nil {
			return nil, fmt.Errorf("%s reference: %w", name, err)
		}
		in.ref = append([]float64(nil), ref.Sink...)
		if recover {
			n := h.ScaledCount(name, 512)
			for k := 0; k < plansPerApp; k++ {
				s := seed*1_000_003 + int64(i*plansPerApp+k)*2
				in.plans = append(in.plans, recoverPlan(in.spec, n, s))
			}
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// recoverPlan is the dag-recover fault mix: n after-compute faults on
// v=rand tasks plus n after-notify faults on v=last tasks. A task drawn by
// both keeps its after-compute fault.
func recoverPlan(spec graph.Spec, n int, seed int64) *fault.Plan {
	p := fault.NewPlan()
	planned := make(map[graph.Key]bool)
	for _, k := range fault.SelectTasks(spec, fault.VRand, n, seed) {
		p.Add(k, fault.AfterCompute, 1)
		planned[k] = true
	}
	for _, k := range fault.SelectTasks(spec, fault.VLast, n, seed+1) {
		if !planned[k] {
			p.Add(k, fault.AfterNotify, 1)
		}
	}
	return p
}

// sameBits reports whether two outputs are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// solve is one timed executor run: d from constructing the executor until
// Run returns, ack the construction alone.
type solve struct {
	d, ack time.Duration
	res    *core.Result
	ok     bool
}

// runSolve runs one graph on a fresh executor and checks its sink. Each
// solve starts from a collected heap, so one graph's garbage is not billed to
// the next.
func runSolve(in *dagInput, ft bool, plan *fault.Plan, spec graph.Spec) solve {
	cfg := core.Config{Workers: nproc(), Retention: in.retention, Plan: plan, Timeout: solveTimeout}
	runtime.GC()
	start := time.Now()
	var res *core.Result
	var err error
	var ack time.Duration
	if ft {
		e := core.NewFT(spec, cfg)
		ack = time.Since(start)
		res, err = e.Run()
	} else {
		e := core.NewBaseline(spec, cfg)
		ack = time.Since(start)
		res, err = e.Run()
	}
	s := solve{d: time.Since(start), ack: ack, res: res}
	s.ok = err == nil && res != nil && sameBits(res.Sink, in.ref)
	return s
}

// dagTally accumulates one class of FT solves (traced or untraced).
type dagTally struct {
	graphs, verified int64
	tasks            int64 // Σ T over verified solves
	ftTime           time.Duration
	wall             time.Duration // Σ P × solve time
	solveMS          []float64
	reexec           []float64
	m                core.Metrics
	st               sched.Stats
	evictions        int64
}

func (t *dagTally) add(in *dagInput, s solve) {
	t.graphs++
	t.ftTime += s.d
	t.wall += time.Duration(nproc()) * s.d
	t.solveMS = append(t.solveMS, ms(s.d))
	if s.ok {
		t.verified++
		t.tasks += int64(in.tasks)
	}
	if r := s.res; r != nil {
		addMetrics(&t.m, r.Metrics)
		addSched(&t.st, r.Sched)
		t.evictions += r.Store.Evictions
		t.reexec = append(t.reexec, float64(r.ReexecutedTasks))
	}
}

func (t *dagTally) tasksPerSec() float64 { return ratio(float64(t.tasks), t.ftTime.Seconds()) }

func runDAG(o options, recover bool) (*result, error) {
	ins, setupS, err := timeSetup(setupRepeats,
		func() ([]*dagInput, error) { return buildDAGInputs(o.Seed, recover) },
		func([]*dagInput) {})
	if err != nil {
		return nil, err
	}
	perSecond := solveRoundsPerSecond
	if recover {
		perSecond = recoverRoundsPerSecond
	}
	rounds := int(math.Ceil(float64(o.Seconds) * perSecond))
	var lc *layerClock
	if o.Trace {
		lc = newLayerClock()
	}

	res := &result{}
	var ft, traced dagTally
	var baseTime time.Duration
	var baseTasks int64
	var sojourn, ack []float64
	probe := startMemProbe()
	runStart := time.Now()
	for r := 0; r < rounds; r++ {
		// The traced run alternates traced and untraced rounds, so the
		// tracing overhead is measured on interleaved solves.
		tracedRound := o.Trace && r%2 == 0
		for i, in := range ins {
			var plan *fault.Plan
			if recover {
				// Traced and untraced rounds come in pairs that share
				// their plans, so the overhead ratio compares like runs.
				pr := r
				if o.Trace {
					pr = r / 2
				}
				plan = in.plans[pr%len(in.plans)].Clone()
			}
			spec := in.spec
			var root trace.SpanContext
			var ts *tracedSpec
			if tracedRound {
				root = lc.root()
				ts = newTracedSpec(in.spec, lc, root, int64(r*len(ins)+i))
				spec = ts
			}
			ftFirst := (r+i)%2 == 0
			var b solve
			if !ftFirst {
				b = runSolve(in, false, nil, in.spec)
			}
			turn := time.Now()
			s := runSolve(in, true, plan, spec)
			if s.ok {
				sojourn = append(sojourn, ms(time.Since(turn)))
			}
			ack = append(ack, ms(s.ack))
			if tracedRound {
				lc.fold(ts)
				lc.endRoot(root, "graph", in.name, int64(r*len(ins)+i), turn, s.d)
			}
			if ftFirst {
				b = runSolve(in, false, nil, in.spec)
			}
			res.Attempted += 2
			if !s.ok {
				res.Failed++
			}
			if !b.ok {
				res.Failed++
			}
			baseTime += b.d
			if b.res != nil {
				baseTasks += int64(b.res.Tasks)
			}
			if tracedRound {
				traced.add(in, s)
			} else {
				ft.add(in, s)
			}
		}
	}
	runWall := time.Since(runStart)
	allocated, peak := probe.finish()
	res.Correct = res.Failed == 0

	executed := ft.m.Computes + traced.m.Computes + baseTasks
	fmt.Fprintf(o.Log, "dag: rounds=%d graphs=%d verified=%d wall=%.2fs ft=%.2fs nabbit=%.2fs\n",
		rounds, ft.graphs+traced.graphs, ft.verified+traced.verified, runWall.Seconds(), (ft.ftTime + traced.ftTime).Seconds(), baseTime.Seconds())

	if !o.Trace {
		res.set("setup_s", setupS, "s")
		res.set("tasks_per_s", ft.tasksPerSec(), "tasks/s")
		res.set("jobs_per_s", ratio(float64(ft.verified), ft.ftTime.Seconds()), "jobs/s")
		res.set("solve_ms_p50", quantile(ft.solveMS, 0.5), "ms")
		res.set("solve_ms_p95", quantile(ft.solveMS, 0.95), "ms")
		res.set("ft_overhead_ratio", ratio(float64(ft.ftTime), float64(baseTime)), "ratio")
		res.set("ack_ms_p50", quantile(ack, 0.5), "ms")
		res.set("sojourn_ms_p50", quantile(sojourn, 0.5), "ms")
		res.set("alloc_kb_per_task", ratio(float64(allocated)/1024, float64(executed)), "KiB")
		res.set("heap_mb", peak/(1<<20), "MB")
		res.set("verified_share", 1-ratio(float64(res.Failed), float64(res.Attempted)), "fraction")
		fmt.Fprintf(o.Log, "dag: n=%d FT solves; p95 has %d samples beyond it\n", len(ft.solveMS), len(ft.solveMS)/20)
		return res, checkMetrics(res, endToEnd, false)
	}

	t := lc.totals
	tr := &traced
	g := float64(tr.graphs)
	res.set("apps.kernel_ms_per_graph", ratio(ms(t.kernel), g), "ms")
	res.set("apps.kernel_share", ratio(float64(t.kernel), float64(tr.wall)), "fraction")
	res.set("block.read_share", ratio(float64(t.read), float64(tr.wall)), "fraction")
	res.set("block.write_share", ratio(float64(t.write), float64(tr.wall)), "fraction")
	res.set("sched.idle_share", ratio(float64(tr.st.IdleTime), float64(tr.wall)), "fraction")
	other := tr.wall - t.kernel - t.read - t.write - tr.st.IdleTime
	res.set("core.other_share", ratio(float64(other), float64(tr.wall)), "fraction")
	res.set("block.write_ns_per_kib", ratio(float64(t.write), float64(t.writeBytes)/1024), "ns/KiB")
	res.set("block.read_ns_per_kib", ratio(float64(t.read), float64(t.readBytes)/1024), "ns/KiB")
	res.set("block.evictions_per_graph", ratio(float64(tr.evictions), g), "count")
	res.set("core.notifications_per_task", ratio(float64(tr.m.Notifications), float64(tr.m.Computes)), "count")
	res.set("core.reexec_per_graph_p50", quantile(tr.reexec, 0.5), "count")
	res.set("core.useful_ratio", ratio(float64(tr.tasks), float64(tr.m.Computes)), "fraction")
	res.set("core.recoveries_per_graph", ratio(float64(tr.m.Recoveries), g), "count")
	res.set("core.resets_per_graph", ratio(float64(tr.m.Resets), g), "count")
	res.set("fault.fired_per_graph", ratio(float64(tr.m.InjectionsFired), g), "count")
	res.set("sched.steals_per_graph", ratio(float64(tr.st.Steals), g), "count")
	res.set("sched.failed_steal_ratio", ratio(float64(tr.st.FailedSteals), float64(tr.st.Steals+tr.st.FailedSteals)), "fraction")
	res.set("sched.parks_per_job", ratio(float64(tr.st.Parks), g), "count")
	res.set("sched.injector_hits_per_job", ratio(float64(tr.st.InjectorHits), g), "count")
	res.set("trace.overhead_ratio", ratio(ft.tasksPerSec(), tr.tasksPerSec()), "ratio")
	if err := microBenches(res, false, o.Out); err != nil {
		return nil, err
	}
	if err := checkMetrics(res, perLayer, true); err != nil {
		return nil, err
	}
	path, err := lc.writePerfetto(o.Out, o.Workload, o.Seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "dag: traced %d of %d graphs; spans written to %s\n", tr.graphs, tr.graphs+ft.graphs, path)
	printLayerTable(o.Log, res, tr.wall)
	return res, nil
}

// addSched accumulates scheduler counters.
func addSched(a *sched.Stats, b sched.Stats) {
	a.Jobs += b.Jobs
	a.Spawns += b.Spawns
	a.Steals += b.Steals
	a.FailedSteals += b.FailedSteals
	a.InjectorHits += b.InjectorHits
	a.Parks += b.Parks
	a.IdleTime += b.IdleTime
	a.BusyTime += b.BusyTime
}

// addMetrics accumulates executor counters.
func addMetrics(a *core.Metrics, b core.Metrics) {
	a.Computes += b.Computes
	a.ComputeErrors += b.ComputeErrors
	a.Recoveries += b.Recoveries
	a.Resets += b.Resets
	a.Registrations += b.Registrations
	a.ReinitEnqueues += b.ReinitEnqueues
	a.Notifications += b.Notifications
	a.InjectionsFired += b.InjectionsFired
	a.OverwriteMarks += b.OverwriteMarks
	a.ReplicatedTasks += b.ReplicatedTasks
	a.ShadowComputes += b.ShadowComputes
	a.ShadowFailures += b.ShadowFailures
	a.SDCInjected += b.SDCInjected
	a.SDCDetected += b.SDCDetected
	a.SDCMissed += b.SDCMissed
}
