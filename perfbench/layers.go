package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"time"

	"ivdss/internal/cluster"
	"ivdss/internal/core"
	"ivdss/internal/costmodel"
	"ivdss/internal/federation"
	"ivdss/internal/metrics"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/replication"
	"ivdss/internal/replsync"
	"ivdss/internal/router"
	"ivdss/internal/scheduler"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// liveLayers derives the part of the per-layer split that needs the live
// federation: counter deltas the DSS reports over KindMetrics, relay round
// trips, and a traced single-client pass over the workload's reads.
func liveLayers(ms *metricSet, f *deployment, w *workload, ops []op, win *window, tr *tracer) error {
	counterLayers(ms, w, win)
	relayLayers(ms, win)
	return tracedPasses(ms, f, w, ops, tr)
}

// d is a DSS counter's growth over the window.
func (win *window) d(name string) float64 { return win.m1[name] - win.m0[name] }

func counterLayers(ms *metricSet, w *workload, win *window) {
	reads := float64(len(win.reads))
	queries := win.d("queries_total")
	ms.ratio("server.shed_frac", "fraction", win.d("queries_shed_total"), queries)
	ms.ratio("server.remote_retries_per_query", "count", win.d("remote_retries_total"), reads)
	// The DSS keeps no service-time histogram; its per-report computational
	// latency (submission to answer, in experiment minutes) is the nearest
	// measure of time spent inside it.
	ms.ratio("server.service_mean_ms", "ms", win.d("report_cl_minutes_sum")/timeScale*1000, win.d("report_cl_minutes_count"))
	if len(win.samples) > 0 {
		var depth []float64
		for _, s := range win.samples {
			depth = append(depth, s["admission_queue_depth"])
		}
		ms.set("server.queue_depth_mean", "count", mean(depth), fmt.Sprintf("%d samples", len(depth)))
	}

	planned := win.d("plans_all_replica_total") + win.d("plans_all_base_total") + win.d("plans_mixed_total") + win.d("plans_view_total")
	ms.ratio("core.replica_plan_frac", "fraction", win.d("plans_all_replica_total"), planned)
	ms.ratio("core.base_plan_frac", "fraction", win.d("plans_all_base_total"), planned)
	ms.ratio("core.delayed_plan_frac", "fraction", win.d("plans_delayed_total"), planned)
	ms.ratio("router.hit_frac", "fraction", win.d("router_hits_total"), win.d("router_hits_total")+win.d("router_fallback_total"))

	if len(w.ReplicateMS) == 0 {
		return // no replicas: the sync layer never runs
	}
	ms.set("replsync.syncs", "count", win.d("syncs_total"), "")
	ms.ratio("replsync.delta_frac", "fraction", win.d("delta_syncs_total"), win.d("syncs_total"))
	written := 0.0
	if win.writes != nil {
		for _, rows := range [][]relation.Row{win.writes.orders, win.writes.lines} {
			written += float64((&relation.Table{Rows: rows}).SizeBytes())
		}
	}
	ms.ratio("replsync.bytes_per_written_byte", "ratio", win.d("sync_bytes_total"), written)
	ms.set("replsync.deferred", "count", win.d("sync_deferred_total"), "")
	ms.set("replsync.errors", "count", win.d("sync_errors_total"), "")
	var stale []float64
	for _, s := range win.samples {
		for name, v := range s {
			if strings.HasPrefix(name, "replica_staleness_seconds_") {
				// The gauge holds experiment seconds; report wall seconds.
				stale = append(stale, v/(60*timeScale))
			}
		}
	}
	if len(stale) > 0 {
		ms.set("replsync.staleness_p50_s", "s", quantile(sorted(stale), .5), fmt.Sprintf("%d samples", len(stale)))
	}
}

// relayLayers derives the wire metrics from the client's and the relays'
// view of the window, and the generator's own.
func relayLayers(ms *metricSet, win *window) {
	answered := 0.0
	var clientRTT []float64
	for _, r := range win.reads {
		if r.err == nil {
			answered++
		}
		clientRTT = append(clientRTT, millis(r.rtt))
	}
	var calls, bytes, rttSum float64
	var rtts []float64
	for site, r1 := range win.relay1 {
		r0 := win.relay0[site]
		calls += float64(r1.calls - r0.calls)
		bytes += float64(r1.bytesUp - r0.bytesUp + r1.bytesDown - r0.bytesDown)
		for _, v := range r1.rttMS[len(r0.rttMS):] {
			rtts = append(rtts, v)
			rttSum += v
		}
	}
	ms.set("netproto.client_rtt_p50_ms", "ms", quantile(sorted(clientRTT), .5), fmt.Sprintf("%d reads", len(clientRTT)))
	ms.ratio("netproto.remote_calls_per_query", "count", calls, answered)
	ms.ratio("netproto.remote_bytes_per_query", "B", bytes, answered)
	ms.ratio("netproto.remote_ms_per_query", "ms", rttSum, answered)
	if len(rtts) > 0 {
		ms.set("netproto.remote_rtt_p50_ms", "ms", quantile(sorted(rtts), .5), fmt.Sprintf("%d round trips", len(rtts)))
	}
	reads, seconds := win.offered()
	ms.ratio("loadgen.offered_qps", "1/s", reads, seconds)
	lag := win.lagMS()
	q := tailQuantile(len(lag))
	ms.set("loadgen.lag_p99_ms", "ms", quantile(sorted(lag), q), fmt.Sprintf("p%.4g of %d reads", q*100, len(lag)))
}

// tracedRounds is how many rounds of templates the single-client passes
// replay.
const tracedRounds = 3

// tracedPasses replays the start of the read sequence with one client,
// first untraced and then traced, so every relay round trip nests in
// exactly one client span. Self time of the DSS is a client span minus
// the relay round trips its plan made.
func tracedPasses(ms *metricSet, f *deployment, w *workload, ops []op, tr *tracer) error {
	n := min(len(ops), tracedRounds*len(templates))
	pass := func(traced bool) ([]float64, error) {
		var lat []float64
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			if traced {
				tr.current.Store(id)
			}
			ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
			t0 := time.Now()
			_, err := f.exec(ctx, templateSQL[ops[i].tmpl])
			t1 := time.Now()
			cancel()
			if err != nil {
				return nil, fmt.Errorf("traced pass %s: %w", ops[i].tmpl, err)
			}
			lat = append(lat, millis(t1.Sub(t0)))
			if traced {
				tr.add(span{ID: id, Name: "client." + ops[i].tmpl, Start: tr.since(t0), End: tr.since(t1)})
			}
		}
		tr.current.Store(0)
		return lat, nil
	}
	plain, err := pass(false)
	if err != nil {
		return err
	}
	mark := len(tr.snapshot())
	tr.active.Store(true)
	traced, err := pass(true)
	tr.active.Store(false)
	if err != nil {
		return err
	}
	p50, p50plain := quantile(sorted(traced), .5), quantile(sorted(plain), .5)
	ms.set("trace.p50_ms", "ms", p50, fmt.Sprintf("%d single-client reads", n))
	ms.ratio("trace.overhead_frac", "fraction", p50-p50plain, p50plain)

	clientSpans := map[int64]span{}
	children := map[int64][]span{}
	var scans, execs float64
	for _, s := range tr.snapshot()[mark:] {
		switch {
		case s.ID == 0:
		case strings.HasPrefix(s.Name, "client."):
			clientSpans[s.ID] = s
		case s.Name == "relay.scan" || s.Name == "relay.exec":
			children[s.ID] = append(children[s.ID], s)
			if s.Name == "relay.scan" {
				scans++
			} else {
				execs++
			}
		}
	}
	var self []float64
	for id, c := range clientSpans {
		self = append(self, millis(selfTime(c, children[id])))
	}
	ms.set("server.self_ms_per_query", "ms", mean(self), fmt.Sprintf("%d traced reads", len(self)))
	ms.ratio("federation.pushdown_frac", "fraction", execs, scans+execs)
	return nil
}

// replayWorld is an in-process copy of the workload's federation for
// replaying single layers: the same placement, replica set, cost model and
// discount rates as the live DSS, over the same generated data.
type replayWorld struct {
	w       *workload
	catalog *federation.Catalog
	engine  *federation.Engine
	planner *core.Planner
	costs   *costmodel.CalibratedModel
	now     core.Time
	queries map[string]core.Query
	stmts   map[string]*sqlmini.SelectStmt
}

func newReplayWorld(w *workload, tables map[string]*relation.Table) (*replayWorld, error) {
	ids := map[core.TableID]core.SiteID{}
	for name, site := range siteOf {
		ids[core.TableID(name)] = site
	}
	placement, err := federation.NewPlacement(ids)
	if err != nil {
		return nil, err
	}
	mgr := replication.NewManager()
	period := 0.0
	for _, name := range sortedKeys(w.ReplicateMS) {
		if err := mgr.Register(core.TableID(name), replication.Schedule{Times: []core.Time{0}}); err != nil {
			return nil, err
		}
		period = max(period, float64(w.ReplicateMS[name])/1000*timeScale)
	}
	rw := &replayWorld{w: w, queries: map[string]core.Query{}, stmts: map[string]*sqlmini.SelectStmt{}}
	if rw.catalog, err = federation.NewCatalog(placement, mgr); err != nil {
		return nil, err
	}
	if rw.engine, err = federation.NewEngine(rw.catalog); err != nil {
		return nil, err
	}
	if err := rw.engine.Distribute(tables); err != nil {
		return nil, err
	}
	mgr.Advance(0) // every replica takes its first snapshot at time 0
	// Plan half a sync period later: the replicas' mean staleness.
	rw.now = core.Time(period / 2)
	if rw.costs, err = costmodel.NewCalibratedModel(&costmodel.CountModel{LocalProcess: .02, PerBaseTable: .05, TransmitFlat: .02}); err != nil {
		return nil, err
	}
	if rw.planner, err = core.NewPlanner(rw.costs, core.PlannerConfig{Rates: rates, Horizon: 30}); err != nil {
		return nil, err
	}
	for _, id := range templates {
		stmt, err := sqlmini.Parse(templateSQL[id])
		if err != nil {
			return nil, err
		}
		q := core.Query{ID: id, BusinessValue: 1, SubmitAt: rw.now}
		for _, name := range stmt.TableNames() {
			q.Tables = append(q.Tables, core.TableID(strings.ToLower(name)))
		}
		rw.queries[id], rw.stmts[id] = q, stmt
	}
	return rw, nil
}

// timeIt calls fn until it has run maxIters times or for budget, at least
// minIters times, and returns the median call time.
func timeIt(fn func() error) (time.Duration, error) {
	const minIters, maxIters, budget = 3, 50, 20 * time.Millisecond
	var ds []float64
	start := time.Now()
	for len(ds) < minIters || (len(ds) < maxIters && time.Since(start) < budget) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// perTemplate times fn on every template and returns the mean of the
// per-template medians: the cost of the workload's uniform mix.
func (rw *replayWorld) perTemplate(tr *tracer, name string, fn func(id string) error) (time.Duration, error) {
	t0 := time.Now()
	var sum time.Duration
	for _, id := range templates {
		d, err := timeIt(func() error { return fn(id) })
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", name, id, err)
		}
		sum += d
	}
	tr.add(span{Name: "replay." + name, Start: tr.since(t0), End: tr.since(time.Now())})
	return sum / time.Duration(len(templates)), nil
}

func (rw *replayWorld) snapshot(id string) ([]core.TableState, error) {
	return rw.catalog.Snapshot(rw.queries[id].Tables, rw.now, 30)
}

// replays times each layer's public functions on the workload's data, in
// an in-process copy of the federation, after the live one has stopped so
// nothing else allocates or competes for the CPU meanwhile.
func replays(ms *metricSet, w *workload, ops []op, seed int64, tables map[string]*relation.Table, tr *tracer) error {
	rw, err := newReplayWorld(w, tables)
	if err != nil {
		return err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ctx := context.Background()

	d, err := rw.perTemplate(tr, "core.plan", func(id string) error {
		snap, err := rw.snapshot(id)
		if err != nil {
			return err
		}
		_, _, err = rw.planner.Best(rw.queries[id], snap, rw.now)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("core.plan_us", "us", us(d), "Planner.Best, mean over templates")

	rt, err := router.New(router.Config{Cost: rw.costs, Rates: rates})
	if err != nil {
		return err
	}
	if w.Register {
		for _, id := range templates {
			if err := rw.register(rt, id); err != nil {
				return err
			}
		}
	}
	d, err = rw.perTemplate(tr, "router.route", func(id string) error {
		snap, err := rw.snapshot(id)
		if err != nil {
			return err
		}
		rt.Route(id, snap, rw.now)
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("router.route_us", "us", us(d), "Router.Route with its snapshot, mean over templates")

	plans := map[string]core.Plan{}
	for _, id := range templates {
		snap, err := rw.snapshot(id)
		if err != nil {
			return err
		}
		if plans[id], _, err = rw.planner.Best(rw.queries[id], snap, rw.now); err != nil {
			return err
		}
	}
	d, err = rw.perTemplate(tr, "federation.exec", func(id string) error {
		_, err := rw.engine.ExecutePlanContext(ctx, templateSQL[id], plans[id])
		return err
	})
	if err != nil {
		return err
	}
	ms.set("federation.exec_ms", "ms", millis(d), "Engine.ExecutePlanContext on in-process sites, mean over templates")

	cat := sqlmini.NewMapCatalog(tables)
	prepared := map[string]*sqlmini.Prepared{}
	d, err = rw.perTemplate(tr, "sqlmini.prepare", func(id string) error {
		p, err := sqlmini.Prepare(rw.stmts[id], cat)
		prepared[id] = p
		return err
	})
	if err != nil {
		return err
	}
	ms.set("sqlmini.prepare_us", "us", us(d), "mean over templates")
	warm := sqlmini.NewExecCache()
	d, err = rw.perTemplate(tr, "sqlmini.exec_warm", func(id string) error {
		_, err := prepared[id].ExecuteContext(ctx, cat, warm)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("sqlmini.exec_warm_ms", "ms", millis(d), "shared ExecCache, mean over templates")
	d, err = rw.perTemplate(tr, "sqlmini.exec_cold", func(id string) error {
		_, err := prepared[id].ExecuteContext(ctx, cat, sqlmini.NewExecCache())
		return err
	})
	if err != nil {
		return err
	}
	ms.set("sqlmini.exec_cold_ms", "ms", millis(d), "fresh ExecCache per call, mean over templates")

	// The columnar images the VM builds: of every replica, or of every
	// shipped base table where the workload replicates nothing.
	var colSum time.Duration
	t0 := time.Now()
	for _, name := range sortedKeys(tables) {
		d, err := timeIt(func() error { _, err := relation.Columnar(tables[name]); return err })
		if err != nil {
			return err
		}
		colSum += d
	}
	tr.add(span{Name: "replay.relation.columnar", Start: tr.since(t0), End: tr.since(time.Now())})
	ms.set("relation.columnar_ms", "ms", millis(colSum), "relation.Columnar, summed over the eight tables")
	t0 = time.Now()
	d, err = timeIt(func() error { tables[tpch.LineItem].Clone(); return nil })
	if err != nil {
		return err
	}
	tr.add(span{Name: "replay.relation.clone", Start: tr.since(t0), End: tr.since(time.Now())})
	ms.set("relation.clone_ms", "ms", millis(d), "Table.Clone of lineitem, the copy a replica delta apply makes")
	if err := replaySync(ms, seed, tables, tr); err != nil {
		return err
	}

	if err := rw.replayGA(ms, ops, tr); err != nil {
		return err
	}
	if err := rw.replayAdmission(ms, ops, seed, tr); err != nil {
		return err
	}
	return replayCodec(ms, w, tables, tr)
}

// syncCycles is how many delta cycles the replication replay times.
const syncCycles = 20

// replaySync times the replication engine's delta cycle on every workload,
// whether or not it replicates: replsync.Agent.SyncNow on a lineitem
// replica, fetching one seeded insert batch in process per cycle and
// applying it copy-on-write as the live DSS does. It then checks that the
// replica holds every row.
func replaySync(ms *metricSet, seed int64, tables map[string]*relation.Table, tr *tracer) error {
	id := core.TableID(tpch.LineItem)
	src := &memSite{rows: append([]relation.Row(nil), tables[tpch.LineItem].Rows...), schema: tables[tpch.LineItem].Schema}
	dst := &memReplica{}
	agent, err := replsync.New(replsync.Config{
		Clock:  &scheduler.ManualClock{},
		Fetch:  src,
		Apply:  dst,
		Tables: []replsync.TableConfig{{ID: id, Period: 1}},
	})
	if err != nil {
		return err
	}
	if err := agent.SyncNow(id); err != nil {
		return err
	}
	batches := writeSchedule(&workload{WriteBatchesPerSec: 1}, seed, syncCycles, tables)
	var ds []float64
	t0 := time.Now()
	for _, b := range batches {
		src.rows = append(src.rows, b.lines...)
		s := time.Now()
		if err := agent.SyncNow(id); err != nil {
			return err
		}
		ds = append(ds, float64(time.Since(s)))
	}
	tr.add(span{Name: "replay.replsync.delta_cycle", Start: tr.since(t0), End: tr.since(time.Now())})
	if got, want := dst.table.NumRows(), len(src.rows); got != want {
		return fmt.Errorf("sync replay: replica has %d rows, site %d", got, want)
	}
	ms.set("replsync.delta_cycle_ms", "ms", millis(time.Duration(median(ds))),
		fmt.Sprintf("Agent.SyncNow of one insert batch into lineitem, median of %d cycles", len(ds)))
	return nil
}

// memSite serves one append-only table's snapshots and deltas in process;
// the row count is the change cursor, as at a branch site.
type memSite struct {
	rows   []relation.Row
	schema relation.Schema
}

func (m *memSite) Snapshot(_ context.Context, id core.TableID) (replsync.Snapshot, error) {
	t := relation.NewTable(string(id), m.schema)
	t.Rows = append(t.Rows, m.rows...)
	return replsync.Snapshot{Table: t, Version: uint64(len(m.rows)), Bytes: t.SizeBytes()}, nil
}

func (m *memSite) Delta(_ context.Context, _ core.TableID, cursor uint64) (replsync.Delta, error) {
	rows := m.rows[cursor:]
	return replsync.Delta{Rows: rows, Version: uint64(len(m.rows)), Bytes: (&relation.Table{Rows: rows}).SizeBytes()}, nil
}

// memReplica installs payloads as the live DSS's replica applier does: a
// delta clones the replica and appends to the copy.
type memReplica struct{ table *relation.Table }

func (m *memReplica) ApplySnapshot(_ core.TableID, snap replsync.Snapshot, _ core.Time) error {
	m.table = snap.Table
	return nil
}

func (m *memReplica) ApplyDelta(_ core.TableID, delta replsync.Delta, _ core.Time) error {
	next := m.table.Clone()
	for _, r := range delta.Rows {
		if err := next.Insert(r); err != nil {
			return err
		}
	}
	m.table = next
	return nil
}

func (m *memReplica) Drop(core.TableID) {}

// register tabulates a template's routes as the DSS's KindRegister does.
func (rw *replayWorld) register(rt *router.Router, id string) error {
	q := rw.queries[id]
	sites := make([]core.SiteID, len(q.Tables))
	replicated := make([]bool, len(q.Tables))
	window := core.Duration(0)
	for i, t := range q.Tables {
		site, err := rw.catalog.Placement().SiteOf(t)
		if err != nil {
			return err
		}
		sites[i] = site
		if period, ok := rw.w.ReplicateMS[string(t)]; ok {
			replicated[i] = true
			window = max(window, core.Duration(float64(period)/1000*timeScale))
		}
	}
	if window == 0 {
		window = 1
	}
	return rt.Register(q, sites, replicated, window)
}

// gaGroup is the size of the query groups the GA replay orders: a
// micro-batch window's worth of arrivals.
const gaGroup = 8

// replayGA orders groups of consecutive reads with the GA multi-query
// optimizer, as a micro-batch window would.
func (rw *replayWorld) replayGA(ms *metricSet, ops []op, tr *tracer) error {
	ev := &scheduler.Evaluator{Planner: rw.planner, Catalog: rw.catalog, Horizon: 30}
	var ds []float64
	t0 := time.Now()
	for g := 0; g+gaGroup <= len(ops) && g < 5*gaGroup; g += gaGroup {
		var qs []core.Query
		for i, o := range ops[g : g+gaGroup] {
			q := rw.queries[o.tmpl]
			q.ID = fmt.Sprintf("%s#%d", q.ID, i)
			qs = append(qs, q)
		}
		s := time.Now()
		if _, err := scheduler.ScheduleMQO(qs, ev, scheduler.GAConfig{Seed: 1}); err != nil {
			return err
		}
		ds = append(ds, float64(time.Since(s)))
	}
	tr.add(span{Name: "replay.scheduler.ga", Start: tr.since(t0), End: tr.since(time.Now())})
	if len(ds) > 0 {
		ms.set("scheduler.ga_ms", "ms", millis(time.Duration(median(ds))), fmt.Sprintf("ScheduleMQO on %d groups of %d", len(ds), gaGroup))
	}
	return nil
}

// The admission replay's engine: what a DSS with a micro-batch window,
// aging and two weighted tenants would run, on two execution slots.
const (
	admitArrivals = 200
	admitPhase    = 25 // arrivals per calm or flash phase
	admitWindow   = 4  // micro-batch window, in mean execution times
	admitQueue    = 16
	admitSlots    = clients
	admitAging    = .1  // aging coefficient
	admitEpsilon  = .01 // the DSS's default value-expiry threshold
)

var admitTenants = map[string]float64{"gold": 2, "silver": 1}

// replayAdmission drives a scheduler.Engine as a DSS with MQOWindow, aging
// and Tenants set drives it, on a hand-stepped clock with plan-modelled
// execution: the workload's reads, each from a seeded tenant, arrive in
// seeded Poisson phases that alternate between half and three times the
// engine's capacity, so windows form workloads, the bounded queue fills
// and cluster.Budgets picks victims. The live workloads cannot do this:
// two client connections never fill the DSS's queue.
func (rw *replayWorld) replayAdmission(ms *metricSet, ops []op, seed int64, tr *tracer) error {
	n := min(len(ops), admitArrivals)
	if n == 0 {
		return nil
	}
	// Capacity follows from the mean planned execution time.
	svc := 0.0
	for _, id := range templates {
		snap, err := rw.snapshot(id)
		if err != nil {
			return err
		}
		plan, _, err := rw.planner.Best(rw.queries[id], snap, rw.now)
		if err != nil {
			return err
		}
		svc += float64(plan.ResultAt()-plan.Start) / float64(len(templates))
	}
	capacity := admitSlots / svc // queries per experiment minute

	clock := &scheduler.ManualClock{}
	clock.RunUntil(rw.now)
	budgets, err := cluster.NewBudgets(cluster.BudgetConfig{Weights: admitTenants, Now: clock.Now})
	if err != nil {
		return err
	}
	stats := metrics.NewRegistry()
	victims, refused := 0, 0
	exec := &admitExecutor{plan: scheduler.PlanExecutor{Clock: clock, Rates: rates}, budgets: budgets}
	eng, err := scheduler.NewEngine(scheduler.EngineConfig{
		Clock:     clock,
		Executor:  exec,
		Strategy:  &scheduler.IVQPStrategy{Planner: rw.planner, Catalog: rw.catalog, Horizon: 30},
		Rates:     rates,
		Slots:     admitSlots,
		Aging:     core.Aging{Coefficient: admitAging},
		Window:    core.Duration(admitWindow * svc),
		GA:        scheduler.GAConfig{Seed: seed},
		Evaluator: &scheduler.Evaluator{Planner: rw.planner, Catalog: rw.catalog, Horizon: 30},
		MaxQueue:  admitQueue,
		Victim: func(arriving core.Query, queued []core.Query) int {
			i := budgets.Victim(arriving, queued)
			if i >= 0 {
				victims++
			}
			return i
		},
		Stats: stats,
	})
	if err != nil {
		return err
	}
	eng.SetEpsilon(admitEpsilon)

	rng := rand.New(rand.NewSource(seed ^ 0x2545f491))
	tenants := sortedKeys(admitTenants)
	t0 := time.Now()
	at := rw.now
	for i, o := range ops[:n] {
		load := .5
		if (i/admitPhase)%2 == 1 {
			load = 3
		}
		at += core.Time(rng.ExpFloat64() / (load * capacity))
		clock.RunUntil(at)
		q := rw.queries[o.tmpl]
		q.ID, q.SubmitAt = fmt.Sprintf("%s#%d", q.ID, i), clock.Now()
		q.Tenant = tenants[rng.Intn(len(tenants))]
		if !eng.Submit(q, nil) {
			refused++
		}
	}
	clock.Run()
	tr.add(span{Name: "replay.scheduler.admission", Start: tr.since(t0), End: tr.since(time.Now())})
	if err := eng.Err(); err != nil {
		return err
	}

	c := stats.Flatten()
	note := fmt.Sprintf("admission replay, %d arrivals", n)
	ms.set("scheduler.workloads_formed", "count", c["workloads_formed_total"], note)
	ms.ratio("scheduler.workload_size_mean", "count", c["workload_size_sum"], c["workload_size_count"])
	ms.ratio("scheduler.mqo_fallback_frac", "fraction", float64(exec.fallbacks), float64(exec.dispatched))
	ms.set("scheduler.aging_boosts", "count", c["aging_boost_applied_total"], note)
	ms.set("cluster.victims", "count", float64(victims), fmt.Sprintf("%s, %d refused", note, refused))
	return nil
}

// admitExecutor models execution on the replay's clock and charges each
// delivered value to its tenant's budget, as the DSS's executor does.
type admitExecutor struct {
	plan                  scheduler.PlanExecutor
	budgets               *cluster.Budgets
	dispatched, fallbacks int
}

func (x *admitExecutor) Execute(d scheduler.Dispatch, done func(core.Outcome)) {
	x.dispatched++
	if d.MQOFallback {
		x.fallbacks++
	}
	x.plan.Execute(d, func(o core.Outcome) {
		x.budgets.Charge(o.Query.Tenant, o.Value)
		done(o)
	})
}

// replayCodec round-trips the payloads the workload's wire carries through
// one netproto.Conn over an in-memory stream: every template's answer and,
// where base tables cross the wire, every table a template reads. The
// stream is kept across calls, as a pooled connection is, so gob's type
// descriptors are sent once.
func replayCodec(ms *metricSet, w *workload, tables map[string]*relation.Table, tr *tracer) error {
	cat := sqlmini.NewMapCatalog(tables)
	var payloads []*netproto.Response
	for _, id := range templates {
		res, err := sqlmini.Run(templateSQL[id], cat)
		if err != nil {
			return err
		}
		payloads = append(payloads, &netproto.Response{Result: res, Meta: &netproto.ReportMeta{Value: 1}})
		if len(w.ReplicateMS) > 0 {
			continue
		}
		q, err := tpch.QueryByID(id)
		if err != nil {
			return err
		}
		names, err := q.Tables()
		if err != nil {
			return err
		}
		for _, n := range names {
			payloads = append(payloads, &netproto.Response{Result: tables[n]})
		}
	}
	mc := &memConn{}
	conn := netproto.NewConn(mc)
	// Warm the stream: the first message of each type carries its
	// descriptor.
	for _, p := range payloads[:1] {
		if err := conn.WriteResponse(p); err != nil {
			return err
		}
		if _, err := conn.ReadResponse(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	var enc, dec []float64
	var mallocs uint64
	var stats runtime.MemStats
	const rounds = 3
	for r := 0; r < rounds; r++ {
		for _, p := range payloads {
			runtime.ReadMemStats(&stats)
			m0 := stats.Mallocs
			s := time.Now()
			if err := conn.WriteResponse(p); err != nil {
				return err
			}
			e := time.Now()
			if _, err := conn.ReadResponse(); err != nil {
				return err
			}
			dd := time.Now()
			runtime.ReadMemStats(&stats)
			mallocs += stats.Mallocs - m0
			enc = append(enc, float64(e.Sub(s)))
			dec = append(dec, float64(dd.Sub(e)))
		}
	}
	tr.add(span{Name: "replay.netproto.codec", Start: tr.since(t0), End: tr.since(time.Now())})
	us := func(ns float64) float64 { return ns / 1e3 }
	note := fmt.Sprintf("%d payloads x %d rounds", len(payloads), rounds)
	ms.set("netproto.encode_us", "us", us(mean(enc)), "Conn.WriteResponse, "+note)
	ms.set("netproto.decode_us", "us", us(mean(dec)), "Conn.ReadResponse, "+note)
	ms.ratio("netproto.codec_allocs_per_op", "count", float64(mallocs), float64(len(enc)))
	return nil
}

// memConn is an in-memory net.Conn: writes append to a buffer that reads
// drain, so encoding and decoding can be timed apart.
type memConn struct{ buf bytes.Buffer }

func (c *memConn) Read(p []byte) (int, error)       { return c.buf.Read(p) }
func (c *memConn) ReadByte() (byte, error)          { return c.buf.ReadByte() }
func (c *memConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
