// Command perfbench is the repository's end-to-end benchmark. It stands up
// a live federation in one process — TPC-H data, two branch sites behind
// benchmark-owned TCP relays, and one DSS front-end, all on loopback —
// drives it with a seeded open-loop request stream, checks every answer
// against an oracle, and prints metrics as one JSON line:
//
//	bash perfbench/run.sh --workload remote-scan --seed 1 --seconds 10 --trace 0
//
// With -trace 0 the line carries the end-to-end metrics; with -trace 1 it
// carries the per-layer split from a traced single-client pass, the DSS's
// own counters and replays of each layer's public functions. Workloads
// and their parameters live in workloads.go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"ivdss/internal/relation"
	"ivdss/internal/tpch"
)

// maxLagP99 bounds how late the generator may issue reads, at the 99th
// percentile, and minOffered how far the rate it achieved may fall short
// of the nominal one. A run beyond either measured the generator, not the
// system, and is refused instead of reported.
const (
	maxLagP99  = 50 * time.Millisecond
	minOffered = .95
)

// setupRepeats is how often a -trace 0 run stands the federation up;
// setup_s is the median.
const setupRepeats = 7

func main() {
	start := time.Now()
	if err := run(start, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(processStart time.Time, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, as in BENCHMARK.json")
	seed := fs.Int64("seed", 1, "workload seed: arrivals, template picks and inserted rows derive from it")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 reports the per-layer split")
	out := fs.String("out", ".bench_build", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}

	var tr *tracer
	repeats := setupRepeats
	if *trace == 1 {
		tr, repeats = newTracer(), 1
	}
	var f *deployment
	var setups []float64
	var err error
	for i := 0; i < repeats; i++ {
		t0 := processStart
		if i > 0 {
			// The previous federation's garbage is not this set-up's cost.
			runtime.GC()
			t0 = time.Now()
		}
		if f, err = startFederation(w, tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < repeats-1 {
			f.close()
		}
	}
	defer f.close()

	base, err := generate()
	if err != nil {
		return err
	}
	orc, err := newOracle(templates, base)
	if err != nil {
		return err
	}
	ops := readSchedule(w, *seed, *seconds)
	batches := writeSchedule(w, *seed, *seconds, base)

	ms := newMetrics()
	ms.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	win, err := measure(f, ops, batches, orc.checker(w), *trace == 1)
	if err != nil {
		return err
	}
	win.report(ms, w)
	if err := win.valid(w); err != nil {
		return fmt.Errorf("run invalid: %w", err)
	}
	if *trace == 1 {
		if err := liveLayers(ms, f, w, ops, win, tr); err != nil {
			return err
		}
	}
	final := error(nil)
	if len(batches) > 0 {
		final = catchUpAndCheck(f, w, base, win.writes)
		if final != nil {
			fmt.Fprintln(stdout, "final check:", final)
		}
	}
	f.close()
	if *trace == 1 {
		if err := replays(ms, w, ops, *seed, base, tr); err != nil {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.Name, *seed))); err != nil {
			return err
		}
	}
	for _, e := range win.failures(5) {
		fmt.Fprintln(stdout, "failure:", e)
	}
	declared := endToEnd
	if *trace == 1 {
		declared = perLayer
	}
	return ms.print(stdout, declared, result{
		Correct:   win.wrong == 0 && final == nil,
		Attempted: win.attempted(),
		Failed:    win.failed(),
	})
}

// window is everything one measured window observed.
type window struct {
	reads      []readRec
	writes     *writeLog
	wrong      int
	cpu        time.Duration
	allocBytes float64
	heapPeak   float64
	m0, m1     map[string]float64
	samples    []map[string]float64 // KindMetrics polled every 250 ms, -trace 1 only
	relay0     map[int]relayStats
	relay1     map[int]relayStats
	start, end time.Time
}

// measure runs one open-loop window: reads and, where the workload has
// them, writes at the branch, with the process's CPU, allocation and heap
// sampled around it and the DSS's counters read at both ends. With sample
// set it also polls the DSS's gauges during the window. The answers are
// checked once all of that is read, so the check is not measured.
func measure(f *deployment, ops []op, batches []writeBatch, check checkFunc, sample bool) (*window, error) {
	ctx := context.Background()
	win := &window{}
	var err error
	if win.m0, err = f.metrics(ctx); err != nil {
		return nil, err
	}
	win.relay0 = f.relayStats()
	// Every window starts from a collected heap, whatever set-up left.
	runtime.GC()
	cpu0, alloc0 := cpuTime(), readMetric("/gc/heap/allocs:bytes")
	stopHeap := sampleHeap()

	win.start = time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		win.writes = write(ctx, f.remoteAddr[writeSite], batches, win.start)
	}()
	stopSampling := make(chan struct{})
	if sample {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-t.C:
				}
				if m, err := f.metrics(ctx); err == nil {
					win.samples = append(win.samples, m)
				}
			}
		}()
	}
	win.reads = drive(f, ops, win.start)
	close(stopSampling)
	wg.Wait()
	win.end = time.Now()

	win.cpu = cpuTime() - cpu0
	win.allocBytes = readMetric("/gc/heap/allocs:bytes") - alloc0
	// A collection at the window's end adds one exact sample: the heap the
	// window left live, which the sparse GC cycles of a large heap may not
	// have marked yet. It runs after CPU and allocation are read.
	peak := stopHeap()
	runtime.GC()
	win.heapPeak = max(peak, readMetric("/gc/heap/live:bytes"))
	win.relay1 = f.relayStats()
	if win.m1, err = f.metrics(ctx); err != nil {
		return nil, err
	}
	checkReads(win.reads, check)
	for _, r := range win.reads {
		if r.wrong {
			win.wrong++
		}
	}
	return win, nil
}

// lagMS is how late the generator issued each read.
func (win *window) lagMS() []float64 {
	var lag []float64
	for _, r := range win.reads {
		lag = append(lag, millis(r.lag))
	}
	return lag
}

// offered is the rate the generator achieved: the reads after the first,
// over the time from issuing the first to issuing the last.
func (win *window) offered() (reads, seconds float64) {
	n := len(win.reads)
	if n < 2 {
		return 0, 0
	}
	first, last := win.reads[0], win.reads[n-1]
	return float64(n - 1), ((last.due + last.lag) - (first.due + first.lag)).Seconds()
}

// valid reports whether the generator kept its schedule.
func (win *window) valid(w *workload) error {
	if lag := quantile(sorted(win.lagMS()), .99); lag > millis(maxLagP99) {
		return fmt.Errorf("generator lag p99 %.1f ms exceeds %v", lag, maxLagP99)
	}
	if reads, seconds := win.offered(); seconds > 0 && reads/seconds < minOffered*w.RateQPS {
		return fmt.Errorf("generator offered %.1f reads/s of %g", reads/seconds, w.RateQPS)
	}
	return nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (win *window) attempted() int { return len(win.reads) + len(win.writes.recs) }

func (win *window) failed() int {
	n := 0
	for _, r := range win.reads {
		if r.err != nil {
			n++
		}
	}
	for _, r := range win.writes.recs {
		if r.err != nil {
			n++
		}
	}
	return n
}

// failures lists up to k distinct failure messages, so a nonzero failure
// count is reported with its cause.
func (win *window) failures(k int) []string {
	seen := map[string]bool{}
	var out []string
	add := func(err error) {
		if err != nil && !seen[err.Error()] && len(out) < k {
			seen[err.Error()] = true
			out = append(out, err.Error())
		}
	}
	for _, r := range win.reads {
		add(r.err)
	}
	for _, r := range win.writes.recs {
		add(r.err)
	}
	return out
}

// report derives the end-to-end metrics.
func (win *window) report(m *metricSet, w *workload) {
	var lat, sl []float64
	good, answered := 0, 0
	iv := 0.0
	for _, r := range win.reads {
		lat = append(lat, millis(r.lat))
		if r.err != nil {
			continue
		}
		answered++
		if millis(r.lat) <= w.LimitMS {
			good++
		}
		if r.meta != nil {
			iv += r.meta.Value
			sl = append(sl, r.meta.SLMinutes)
		}
	}
	lat = sorted(lat)
	n := len(lat)
	m.set("p50_ms", "ms", quantile(lat, .5), fmt.Sprintf("%d reads", n))
	q := tailQuantile(n)
	m.set("p99_ms", "ms", quantile(lat, q), fmt.Sprintf("p%.4g of %d reads", q*100, n))
	elapsed := win.end.Sub(win.start).Seconds()
	m.set("goodput_qps", "1/s", float64(good)/elapsed, fmt.Sprintf("%d correct within %g ms over %.3f s", good, w.LimitMS, elapsed))
	m.ratio("fail_frac", "fraction", float64(win.failed()), float64(win.attempted()))
	m.ratio("iv_mean", "value", iv, float64(n))
	if len(w.ReplicateMS) > 0 {
		m.set("sl_mean_min", "min", mean(sl), fmt.Sprintf("%d answered reads", len(sl)))
	}
	completed := answered
	var wlat []float64
	for _, r := range win.writes.recs {
		if r.err == nil {
			completed++
			wlat = append(wlat, millis(r.lat))
		}
	}
	m.ratio("cpu_ms_per_query", "ms", millis(win.cpu), float64(completed))
	m.ratio("alloc_kb_per_query", "KiB", win.allocBytes/1024, float64(completed))
	m.set("heap_peak_mb", "MiB", win.heapPeak/(1<<20), "largest live heap after a GC cycle, one forced at the window's end")
	if len(wlat) > 0 {
		wlat = sorted(wlat)
		m.set("write_p50_ms", "ms", quantile(wlat, .5), fmt.Sprintf("%d inserts", len(wlat)))
		q := tailQuantile(len(wlat))
		m.set("write_p99_ms", "ms", quantile(wlat, q), fmt.Sprintf("p%.4g of %d inserts", q*100, len(wlat)))
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetric reads one runtime metric without stopping the world.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	default:
		return 0
	}
}

// sampleHeap samples the live heap, as the last GC cycle marked it, every
// 10 ms until stopped and returns the largest sample.
func sampleHeap() (stop func() float64) {
	done := make(chan struct{})
	peak := 0.0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			peak = max(peak, readMetric("/gc/heap/live:bytes"))
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// relayStats snapshots every relay, by site.
func (f *deployment) relayStats() map[int]relayStats {
	out := map[int]relayStats{}
	for site, rl := range f.relays {
		out[int(site)] = rl.snapshot()
	}
	return out
}

// checker returns the per-read check. Reads on a workload with writes may
// see any prefix of the inserts, so templates over the written tables are
// checked for their shape only during the window; catchUpAndCheck checks
// their values once the replicas have caught up.
func (o oracle) checker(w *workload) checkFunc {
	written := map[string]bool{}
	if w.WriteBatchesPerSec > 0 {
		written[tpch.Orders], written[tpch.LineItem] = true, true
	}
	touches := map[string]bool{}
	for _, id := range templates {
		q, _ := tpch.QueryByID(id)
		tables, _ := q.Tables()
		for _, t := range tables {
			if written[t] {
				touches[id] = true
			}
		}
	}
	return func(tmpl string, t *relation.Table) error {
		if touches[tmpl] {
			return o[tmpl].checkShape(t)
		}
		return o[tmpl].check(t)
	}
}

// catchUpAndCheck waits, after the writes stopped, until every replica of
// a written table reflects every acknowledged insert, then reads each
// template through the DSS and compares it with the oracle over the base
// data plus those inserts.
func catchUpAndCheck(f *deployment, w *workload, base map[string]*relation.Table, wl *writeLog) error {
	want := map[string]uint64{
		tpch.Orders:   uint64(base[tpch.Orders].NumRows() + len(wl.orders)),
		tpch.LineItem: uint64(base[tpch.LineItem].NumRows() + len(wl.lines)),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		cur, err := f.cursors(ctx)
		if err != nil {
			return err
		}
		if cur[tpch.Orders] == want[tpch.Orders] && cur[tpch.LineItem] == want[tpch.LineItem] {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replicas did not catch up: cursors %v, want %v", cur, want)
		case <-time.After(20 * time.Millisecond):
		}
	}
	// The replicas' sync stamps must also pass the last insert, so even a
	// plan that prefers them over the base reads the caught-up copy.
	after := map[string]*relation.Table{}
	for name, t := range base {
		after[name] = t
	}
	for _, ins := range []struct {
		name string
		rows []relation.Row
	}{{tpch.Orders, wl.orders}, {tpch.LineItem, wl.lines}} {
		t := base[ins.name].Clone()
		t.Rows = append(t.Rows, ins.rows...)
		after[ins.name] = t
	}
	orc, err := newOracle(templates, after)
	if err != nil {
		return err
	}
	for _, id := range templates {
		resp, err := f.exec(ctx, templateSQL[id])
		if err != nil {
			return fmt.Errorf("%s after catch-up: %w", id, err)
		}
		if err := orc[id].check(resp.Result); err != nil {
			return fmt.Errorf("%s after catch-up: %w", id, err)
		}
	}
	return nil
}
