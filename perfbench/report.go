package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// endToEnd and perLayer are the metrics the result line carries with
// -trace 0 and -trace 1; BENCHMARK.json declares the same names
// (TestDeclaredMetricsMatchBenchmarkJSON keeps them in step). Every one is
// measured on every workload. Metrics that only some workloads exercise
// (p99_ms, fail_frac, sl_mean_min, write_p50_ms, write_p99_ms, the
// replsync counters and federation.pushdown_frac) are printed above the
// result line where they exist and are absent elsewhere.
var (
	endToEnd = []string{
		"setup_s", "p50_ms", "goodput_qps", "iv_mean",
		"cpu_ms_per_query", "alloc_kb_per_query", "heap_peak_mb",
	}
	perLayer = []string{
		"netproto.client_rtt_p50_ms", "netproto.remote_calls_per_query",
		"netproto.remote_bytes_per_query", "netproto.remote_rtt_p50_ms",
		"netproto.remote_ms_per_query", "netproto.encode_us", "netproto.decode_us",
		"netproto.codec_allocs_per_op",
		"server.self_ms_per_query", "server.service_mean_ms", "server.queue_depth_mean",
		"server.shed_frac", "server.remote_retries_per_query",
		"scheduler.ga_ms", "scheduler.workloads_formed", "scheduler.workload_size_mean",
		"scheduler.mqo_fallback_frac", "scheduler.aging_boosts",
		"core.plan_us", "core.replica_plan_frac", "core.base_plan_frac", "core.delayed_plan_frac",
		"router.hit_frac", "router.route_us",
		"federation.exec_ms",
		"sqlmini.prepare_us", "sqlmini.exec_warm_ms", "sqlmini.exec_cold_ms",
		"relation.columnar_ms", "relation.clone_ms",
		"replsync.delta_cycle_ms",
		"cluster.victims",
		"loadgen.offered_qps", "loadgen.lag_p99_ms",
		"trace.p50_ms", "trace.overhead_frac",
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a run's named values plus, for human readers, how each was
// derived. A metric whose base the run never exercised is absent: it is
// not in the map, and nothing prints it as 0.
type metricSet struct {
	m     map[string]metric
	notes map[string]string
}

func newMetrics() *metricSet {
	return &metricSet{m: map[string]metric{}, notes: map[string]string{}}
}

func (ms *metricSet) set(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	ms.m[name] = metric{Value: v, Unit: unit}
	if note != "" {
		ms.notes[name] = note
	}
}

// ratio sets num/den, recording both; it leaves the metric absent when
// the denominator is zero.
func (ms *metricSet) ratio(name, unit string, num, den float64) {
	if den == 0 {
		return
	}
	ms.set(name, unit, num/den, fmt.Sprintf("%g / %g", num, den))
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes every metric, with its unit and derivation, then the
// result line restricted to the names the mode declares. It refuses to
// print a result line that lacks a declared metric.
func (ms *metricSet) print(w io.Writer, declared []string, r result) error {
	for _, n := range declared {
		if _, ok := ms.m[n]; !ok {
			return fmt.Errorf("declared metric %s was not measured", n)
		}
	}
	names := make([]string, 0, len(ms.m))
	for n := range ms.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%-34s %14.6g %s", n, ms.m[n].Value, ms.m[n].Unit)
		if note := ms.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	r.Metrics = map[string]metric{}
	for _, n := range declared {
		r.Metrics[n] = ms.m[n]
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile is the highest quantile, up to 0.99, that leaves at least
// ten samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return math.NaN()
	}
	return min(.99, 1-10/float64(n))
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(sorted(xs), .5) }
