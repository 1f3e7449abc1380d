package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// named is a metric name with its unit. Every workload prints every metric
// of the list its mode reports; BENCHMARK.json lists the same names.
type named struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []named{
	{"setup_s", "s"},
	{"tasks_per_s", "tasks/s"},
	{"jobs_per_s", "jobs/s"},
	{"solve_ms_p50", "ms"},
	{"solve_ms_p95", "ms"},
	{"ft_overhead_ratio", "ratio"},
	{"ack_ms_p50", "ms"},
	{"sojourn_ms_p50", "ms"},
	{"alloc_kb_per_task", "KiB"},
	{"heap_mb", "MB"},
	{"verified_share", "fraction"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []named{
	{"apps.kernel_ms_per_graph", "ms"},
	{"apps.kernel_share", "fraction"},
	{"block.read_share", "fraction"},
	{"block.write_share", "fraction"},
	{"block.write_ns_per_kib", "ns/KiB"},
	{"block.read_ns_per_kib", "ns/KiB"},
	{"block.evictions_per_graph", "count"},
	{"core.other_share", "fraction"},
	{"core.notifications_per_task", "count"},
	{"core.reexec_per_graph_p50", "count"},
	{"core.useful_ratio", "fraction"},
	{"core.recoveries_per_graph", "count"},
	{"core.resets_per_graph", "count"},
	{"fault.fired_per_graph", "count"},
	{"sched.steals_per_graph", "count"},
	{"sched.failed_steal_ratio", "fraction"},
	{"sched.idle_share", "fraction"},
	{"sched.parks_per_job", "count"},
	{"sched.injector_hits_per_job", "count"},
	{"deque.push_pop_ns", "ns"},
	{"deque.steal_ns", "ns"},
	{"sched.spawn_ns", "ns"},
	{"cluster.router_hop_ms_p50", "ms"},
	{"cluster.refused", "count"},
	{"service.admit_ms_p50", "ms"},
	{"service.admit_ms_p99", "ms"},
	{"journal.fsync_batch", "ratio"},
	{"journal.appends_per_job", "count"},
	{"journal.append_fsync_us", "us"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p99", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"replica.shadow_computes_per_job", "count"},
	{"replica.sdc_detected_ratio", "fraction"},
	{"gen.ack_ms_p99", "ms"},
	{"gen.sojourn_ms_p99", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// checkMetrics makes res hold exactly the metrics of want. With zeroFill
// (the per-layer list) a metric of a layer the workload does not exercise
// reports 0; otherwise a missing metric is an error in the benchmark, as are
// an unknown name and a wrong unit.
func checkMetrics(res *result, want []named, zeroFill bool) error {
	known := make(map[string]string, len(want))
	for _, m := range want {
		known[m.name] = m.unit
		got, ok := res.Metrics[m.name]
		switch {
		case !ok && zeroFill:
			res.set(m.name, 0, m.unit)
		case !ok:
			return fmt.Errorf("metric %s not measured", m.name)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := known[name]; !ok {
			return fmt.Errorf("metric %s is not in the benchmark's list", name)
		}
	}
	return nil
}

// printLayerTable prints the per-layer metrics grouped by layer, and the
// split of P × wall into kernel, block read, block write, idle and the
// executor's own work.
func printLayerTable(w io.Writer, res *result, pWall time.Duration) {
	fmt.Fprintf(w, "per-layer split of P x wall = %.3fs:", pWall.Seconds())
	for _, k := range []string{"apps.kernel_share", "block.read_share", "block.write_share", "sched.idle_share", "core.other_share"} {
		fmt.Fprintf(w, " %s=%.4f", strings.TrimSuffix(k, "_share"), res.Metrics[k].Value)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
