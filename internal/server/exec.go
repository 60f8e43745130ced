package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math"
	"strings"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"

	"ivdss/internal/wall"
)

// Execution path of the DSS: planning one query (router fast path, bounded
// delays, degraded planning around open breakers), running its plan
// against replicas and remote sites, and the per-report IV accounting.
// Scheduling — which query runs when — lives in sched.go; this file only
// knows how to run the one it is handed.

// queryID derives a stable identifier for ad hoc SQL so repeated texts
// share calibration entries.
func queryID(sql string) string {
	sum := sha256.Sum256([]byte(strings.Join(strings.Fields(sql), " ")))
	return "sql-" + hex.EncodeToString(sum[:6])
}

// latencyBounds buckets CL/SL histograms in experiment minutes.
var latencyBounds = []float64{.1, .5, 1, 2, 5, 10, 20, 40, 80, 160}

// valueBounds buckets information-value histograms.
var valueBounds = []float64{.1, .2, .3, .4, .5, .6, .7, .8, .9, 1}

// expiryResponse classifies a mid-execution failure caused by the request
// context ending: a value-horizon cancellation, a wire-deadline expiry, or
// a client cancellation. It returns nil for ordinary errors. The matching
// counters distinguish work the admission controller killed for value
// reasons from work the client simply stopped waiting for.
func (s *DSSServer) expiryResponse(err error) *netproto.Response {
	var vee *core.ValueExpiredError
	switch {
	case errors.As(err, &vee):
		s.stats.Counter("queries_cancelled_total").Inc()
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.Counter("queries_deadline_exceeded_total").Inc()
	case errors.Is(err, context.Canceled):
		s.stats.Counter("queries_cancelled_total").Inc()
	default:
		return nil
	}
	return &netproto.Response{Err: err.Error(), Expired: true}
}

// isDegradedErr reports whether err is the typed degraded-mode failure: the
// query could not be answered because a site is down and no replica exists.
func isDegradedErr(err error) bool {
	var ue *core.SiteUnavailableError
	return errors.As(err, &ue)
}

// plannerQuery derives the planner's view of a parsed statement.
func (s *DSSServer) plannerQuery(stmt *sqlmini.SelectStmt, sql string, bv float64, submit core.Time) (core.Query, error) {
	var tables []core.TableID
	for _, name := range stmt.TableNames() {
		tables = append(tables, core.TableID(strings.ToLower(name)))
	}
	if bv == 0 {
		bv = 1
	}
	q := core.Query{ID: queryID(sql), Tables: tables, BusinessValue: bv, SubmitAt: submit}
	// Fail fast on unknown tables so batch members error individually.
	for _, id := range tables {
		if _, err := s.catalog.Placement().SiteOf(id); err != nil {
			return core.Query{}, err
		}
	}
	return q, nil
}

// runOne plans (router fast path optional), honours a bounded delay,
// executes, and records calibration and metrics for one query. The CL
// clock runs from q.SubmitAt, so queries queued behind their workload
// predecessors pay their waiting time.
func (s *DSSServer) runOne(ctx context.Context, stmt *sqlmini.SelectStmt, q core.Query, tryRouter bool) (*relation.Table, *netproto.ReportMeta, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, context.Cause(ctx)
	}
	now := s.now()
	snapshot, err := s.catalog.Snapshot(q.Tables, now, s.cfg.PlannerHorizon)
	if err != nil {
		return nil, nil, err
	}
	// Degradation policy (planner-level): a site whose breaker is open is
	// excluded from the plan space, so the search itself falls back to the
	// freshest replica — pricing the true staleness into the IV — instead
	// of the executor discovering the outage per call.
	degradedPlanning := false
	if down := s.openSites(); down != nil {
		for i := range snapshot {
			if down[snapshot[i].Site] {
				snapshot[i].BaseDown = true
				degradedPlanning = true
			}
		}
	}
	// Registered queries take the pre-calculated routing fast path; a
	// refusal (QoS violated, shape changed) falls back to the full search.
	// Routing tables were precomputed assuming healthy sites, so degraded
	// planning always takes the full search.
	var plan core.Plan
	usedRouter := false
	if tryRouter && !degradedPlanning {
		plan, usedRouter = s.router.Route(q.ID, snapshot, now)
	}
	if usedRouter {
		plan.Query = q // carry the true submission time for CL accounting
		s.stats.Counter("routed_plans_total").Inc()
	} else {
		plan, _, err = s.planner.Best(q, snapshot, now)
		if err != nil {
			return nil, nil, err
		}
	}

	if err := s.holdPlan(ctx, plan); err != nil {
		return nil, nil, err
	}

	result, freshness, degradedExec, err := s.executePlan(ctx, stmt, plan)
	if err != nil {
		return nil, nil, err
	}
	// A degraded answer: the plan was searched around an open breaker, or
	// the executor itself had to fall back to a replica mid-read.
	degraded := degradedPlanning || degradedExec
	finish := s.now()

	// Online calibration: record the measured processing cost for this
	// (query, data-source configuration) pair. For plans without views the
	// key reduces to the legacy base-table subset, so saved calibrations
	// keep matching.
	s.costs.RecordAccess(q.ID, plan.Access, core.CostEstimate{Process: finish - plan.Start})

	lat := core.Latencies{
		CL: math.Max(finish-q.SubmitAt, 0),
		SL: math.Max(finish-freshness, 0),
	}
	value := core.InformationValue(q.BusinessValue, lat, s.cfg.Rates)
	s.stats.Histogram("report_cl_minutes", latencyBounds).Observe(lat.CL)
	s.stats.Histogram("report_sl_minutes", latencyBounds).Observe(lat.SL)
	s.stats.Histogram("report_value", valueBounds).Observe(value)
	if _, viewPlan := plan.ViewAccess(); viewPlan {
		s.stats.Counter("plans_view_total").Inc()
	} else if len(plan.BaseTables()) == 0 {
		s.stats.Counter("plans_all_replica_total").Inc()
	} else if len(plan.BaseTables()) == len(plan.Access) {
		s.stats.Counter("plans_all_base_total").Inc()
	} else {
		s.stats.Counter("plans_mixed_total").Inc()
	}
	if degraded {
		s.stats.Counter("degraded_answers_total").Inc()
	}
	// Feed the adaptive replication loop: what this report lost to
	// staleness, charged to the replicas its plan read, and the query
	// itself for the placement review's workload window.
	s.observeSyncLoss(plan, value, lat)
	s.noteRecentQuery(q)
	return result, &netproto.ReportMeta{
		PlanSignature: plan.Signature(),
		CLMinutes:     lat.CL,
		SLMinutes:     lat.SL,
		Value:         value,
		Degraded:      degraded,
	}, nil
}

// holdPlan honours a delayed plan, waiting until its release time bounded
// by MaxDelay — and by the request context: a deadline that fires
// mid-delay aborts before any work runs. Only a plan actually held back
// counts in plans_delayed_total; one released at or before now (every
// plan starts after its submission) runs at once.
func (s *DSSServer) holdPlan(ctx context.Context, plan core.Plan) error {
	delay := s.wallDelay(plan.Start - s.now())
	if delay <= 0 {
		return nil
	}
	s.stats.Counter("plans_delayed_total").Inc()
	if delay > s.cfg.MaxDelay {
		delay = s.cfg.MaxDelay
	}
	t := wall.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-s.closed:
		return fmt.Errorf("server shutting down")
	}
}

// executePlan evaluates the statement with per-table data sources chosen
// by the plan and returns the result, the oldest freshness timestamp
// actually used, and whether the answer is degraded (a base read fell back
// to a stale replica because the site was unreachable).
func (s *DSSServer) executePlan(ctx context.Context, stmt *sqlmini.SelectStmt, plan core.Plan) (*relation.Table, core.Time, bool, error) {
	// A view plan is the whole answer, already materialized and
	// pre-aggregated: serve it without re-evaluating the statement. The
	// copy-on-write refresh discipline makes the returned snapshot stable.
	if va, ok := plan.ViewAccess(); ok {
		s.mu.RLock()
		vs, ok := s.views[va.View]
		var table *relation.Table
		var syncedAt core.Time
		if ok && vs.table != nil {
			table, syncedAt = vs.table, vs.syncedAt
		}
		s.mu.RUnlock()
		if table == nil {
			return nil, 0, false, fmt.Errorf("server: no materialized answer for view %s", va.View)
		}
		return table, syncedAt, false, nil
	}
	cat := make(sqlmini.MapCatalog, len(plan.Access))
	oldest := math.Inf(1)
	degraded := false
	// Tables fetched from a site serve this statement only: release them
	// from the shared cache afterwards so it keeps just replica images.
	var fetched []*relation.Table
	defer func() { s.execOpts.Cache.Forget(fetched...) }()
	for _, a := range plan.Access {
		switch a.Kind {
		case core.AccessReplica:
			s.mu.RLock()
			snap, ok := s.replicas[a.Table]
			s.mu.RUnlock()
			if !ok {
				return nil, 0, false, fmt.Errorf("server: no replica snapshot for %s", a.Table)
			}
			cat.Add(string(a.Table), snap.table)
			oldest = math.Min(oldest, snap.syncedAt)
		case core.AccessBase:
			fetchedAt := s.now()
			// Query decomposition: push the table's single-alias filter
			// conjuncts to the remote site so only matching rows travel.
			// The residual WHERE still runs locally, so a refused or
			// failed pushdown only costs transfer, never correctness.
			req := &netproto.Request{Kind: netproto.KindScan, Table: string(a.Table)}
			if pushSQL, ok := sqlmini.PushdownFor(stmt, string(a.Table)); ok {
				req = &netproto.Request{Kind: netproto.KindExec, SQL: pushSQL}
				s.stats.Counter("pushdowns_total").Inc()
			}
			resp, err := s.callSite(ctx, a.Site, req)
			if err != nil {
				// A failure caused by the request's own deadline is the
				// caller's answer — degrading to a replica would spend more
				// time producing a report nobody is waiting for.
				if ctx.Err() != nil {
					return nil, 0, false, context.Cause(ctx)
				}
				// Availability degradation: an unreachable site is survivable
				// when a replica snapshot exists — serve the stale copy and
				// let the SL accounting price the staleness honestly.
				s.mu.RLock()
				snap, ok := s.replicas[a.Table]
				s.mu.RUnlock()
				if !ok {
					var remote *netproto.RemoteError
					if errors.As(err, &remote) {
						// The site answered: an application error, not an
						// outage — surface it undecorated.
						return nil, 0, false, fmt.Errorf("server: site %d: %w", a.Site, err)
					}
					return nil, 0, false, &core.SiteUnavailableError{Table: a.Table, Site: a.Site, Cause: err}
				}
				log.Printf("server: site %d unreachable for %s, degrading to replica (synced %.2f): %v", a.Site, a.Table, snap.syncedAt, err)
				s.stats.Counter("degraded_reads_total").Inc()
				degraded = true
				cat.Add(string(a.Table), snap.table)
				oldest = math.Min(oldest, snap.syncedAt)
				continue
			}
			result := resp.Result
			result.Name = string(a.Table)
			cat.Add(string(a.Table), result)
			fetched = append(fetched, result)
			oldest = math.Min(oldest, fetchedAt)
		case core.AccessView:
			// A view materializes a whole answer; the bypass above is the
			// only valid shape. The planner never emits mixed view plans.
			return nil, 0, false, fmt.Errorf("server: view %s cannot serve table %s inside a multi-source plan", a.View, a.Table)
		default:
			return nil, 0, false, fmt.Errorf("server: invalid access kind %d", int(a.Kind))
		}
	}
	out, err := sqlmini.ExecuteWith(ctx, stmt, cat, s.execOpts)
	if err != nil {
		return nil, 0, false, err
	}
	if math.IsInf(oldest, 1) {
		oldest = s.now()
	}
	return out, oldest, degraded, nil
}
