package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
)

// eventsTable holds n rows whose id is their position, so any response can
// be checked to be an exact prefix (or suffix window) of the table.
func eventsTable(n int) *relation.Table {
	tbl := relation.NewTable("events", relation.MustSchema(
		relation.Column{Name: "e_id", Type: relation.Int},
		relation.Column{Name: "e_tag", Type: relation.Str},
	))
	for i := 0; i < n; i++ {
		tbl.MustInsert(eventRow(i))
	}
	return tbl
}

func eventRow(i int) relation.Row {
	return relation.Row{relation.IntVal(int64(i)), relation.StrVal(strings.Repeat("x", i%7))}
}

// checkWindow verifies rows are events [from, from+len(rows)).
func checkWindow(rows []relation.Row, from int) error {
	for k, r := range rows {
		if want := eventRow(from + k); len(r) != 2 || r[0] != want[0] || r[1] != want[1] {
			return fmt.Errorf("row %d is %v, want %v", from+k, r, want)
		}
	}
	return nil
}

// TestCloneFreeServingUnderInserts serves scans, snapshots and deltas from
// the live base table while inserts append to it. Each answer must be the
// exact prefix its version names (or the suffix its cursor names), and
// scans after the writer finishes must see every inserted row. Run under
// -race, it also checks that serving without a copy never reads a row an
// insert is writing.
func TestCloneFreeServingUnderInserts(t *testing.T) {
	const initial, batches, perBatch = 64, 40, 5
	_, addr := startRemote(t, eventsTable(initial))

	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(done)
		conn, err := netproto.Dial(addr, 5*time.Second)
		if err != nil {
			writerErr <- err
			return
		}
		defer conn.Close()
		next := initial
		for b := 0; b < batches; b++ {
			rows := make([]relation.Row, perBatch)
			for i := range rows {
				rows[i] = eventRow(next + i)
			}
			resp, err := conn.RoundTrip(&netproto.Request{Kind: netproto.KindInsert, Table: "events", Rows: rows})
			if err == nil {
				err = resp.ErrOrNil()
			}
			if err != nil {
				writerErr <- err
				return
			}
			next += perBatch
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	read := func(kind netproto.RequestKind) {
		defer wg.Done()
		conn, err := netproto.Dial(addr, 5*time.Second)
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		var cursor uint64
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := conn.RoundTrip(&netproto.Request{Kind: kind, Table: "events", Cursor: cursor})
			if err == nil {
				err = resp.ErrOrNil()
			}
			if err != nil {
				errs <- err
				return
			}
			switch kind {
			case netproto.KindScan:
				if n := resp.Result.NumRows(); n < initial {
					t.Errorf("scan returned %d rows, fewer than the initial %d", n, initial)
				}
				err = checkWindow(resp.Result.Rows, 0)
			case netproto.KindSnapshot:
				if got := uint64(resp.Result.NumRows()); got != resp.Version {
					t.Errorf("snapshot holds %d rows at version %d", got, resp.Version)
				}
				err = checkWindow(resp.Result.Rows, 0)
			case netproto.KindDelta:
				if got := cursor + uint64(len(resp.DeltaRows)); got != resp.Version {
					t.Errorf("delta from %d holds %d rows at version %d", cursor, len(resp.DeltaRows), resp.Version)
				}
				err = checkWindow(resp.DeltaRows, int(cursor))
				// Alternate between catching up and re-reading a longer
				// suffix, so both short and long windows are served.
				if cursor == 0 {
					cursor = resp.Version
				} else {
					cursor = 0
				}
			}
			if err != nil {
				t.Errorf("%v answer: %v", kind, err)
				return
			}
		}
	}
	for _, kind := range []netproto.RequestKind{netproto.KindScan, netproto.KindSnapshot, netproto.KindDelta} {
		wg.Add(1)
		go read(kind)
	}
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	select {
	case err := <-writerErr:
		t.Fatal(err)
	default:
	}

	const total = initial + batches*perBatch
	resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindScan, Table: "events"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.Result.NumRows(); n != total {
		t.Fatalf("scan after the writer finished: %d rows, want %d", n, total)
	}
	if err := checkWindow(resp.Result.Rows, 0); err != nil {
		t.Fatal(err)
	}
	resp, err = netproto.Call(addr, &netproto.Request{Kind: netproto.KindDelta, Table: "events", Cursor: initial}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.DeltaRows) != total-initial || resp.Version != total {
		t.Fatalf("delta after the writer finished: %d rows at version %d", len(resp.DeltaRows), resp.Version)
	}
	if err := checkWindow(resp.DeltaRows, initial); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteExecSeesInserts checks that the branch's pushdown cache
// notices appends: an aggregate over a cached table answers for the rows
// inserted since it was cached.
func TestRemoteExecSeesInserts(t *testing.T) {
	_, addr := startRemote(t, eventsTable(10))
	count := func() int64 {
		t.Helper()
		resp, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindExec, SQL: "SELECT count(*) AS n FROM events e WHERE e.e_id >= 0"}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result.Rows[0][0].I
	}
	if n := count(); n != 10 {
		t.Fatalf("count = %d, want 10", n)
	}
	if _, err := netproto.Call(addr, &netproto.Request{Kind: netproto.KindInsert, Table: "events", Rows: []relation.Row{eventRow(10)}}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 11 {
		t.Fatalf("count after insert = %d, want 11", n)
	}
}

// TestDSSExecCacheKeepsOnlyReplicas executes base-table and mixed plans
// and checks that the DSS's shared execution cache holds none of the
// tables fetched from the site afterwards, while the replica image the
// mixed plan read stays cached.
func TestDSSExecCacheKeepsOnlyReplicas(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t), tradesTable(t))
	dss, _ := startDSS(t, remoteAddr)

	trades := core.TableAccess{Table: "trades", Site: 1, Kind: core.AccessBase}
	accounts := core.TableAccess{Table: "accounts", Site: 1, Kind: core.AccessReplica}
	runs := []struct {
		sql    string
		access []core.TableAccess
	}{
		{"SELECT count(*) AS n FROM trades tr", []core.TableAccess{trades}},
		{"SELECT tr.t_account, sum(tr.t_amount) AS s FROM trades tr GROUP BY tr.t_account", []core.TableAccess{trades}},
		{`SELECT a.a_id, sum(tr.t_amount) AS s FROM accounts a, trades tr
		  WHERE a.a_id = tr.t_account GROUP BY a.a_id`, []core.TableAccess{accounts, trades}},
	}
	for round := 0; round < 3; round++ {
		for _, r := range runs {
			stmt, err := sqlmini.Parse(r.sql)
			if err != nil {
				t.Fatal(err)
			}
			out, _, _, err := dss.executePlan(context.Background(), stmt, core.Plan{Access: r.access})
			if err != nil {
				t.Fatal(err)
			}
			if out.NumRows() == 0 {
				t.Fatalf("%s: empty answer", r.sql)
			}
		}
	}
	holdsAccounts := false
	for _, name := range dss.execOpts.Cache.Names() {
		switch name {
		case "trades":
			t.Error("cache still holds a fetched trades table")
		case "accounts":
			holdsAccounts = true
		}
	}
	if !holdsAccounts {
		t.Error("cache dropped the accounts replica image the mixed plan read")
	}
}

// TestPlansDelayedCountsOnlyHeldPlans pins plans_delayed_total to plans
// the DSS actually held back: a plan released after its submission but not
// after now runs at once and is not counted.
func TestPlansDelayedCountsOnlyHeldPlans(t *testing.T) {
	_, remoteAddr := startRemote(t, accountsTable(t))
	dss, _ := startDSS(t, remoteAddr)
	delayed := dss.stats.Counter("plans_delayed_total")

	now := dss.now()
	released := core.Plan{Query: core.Query{SubmitAt: now - 2}, Start: now - 1}
	if err := dss.holdPlan(context.Background(), released); err != nil {
		t.Fatal(err)
	}
	if got := delayed.Value(); got != 0 {
		t.Fatalf("plans_delayed_total = %d after a plan due in the past, want 0", got)
	}

	// 0.005 experiment minutes at TimeScale 10 is 30 ms of wall time.
	now = dss.now()
	held := core.Plan{Query: core.Query{SubmitAt: now}, Start: now + 0.005}
	if err := dss.holdPlan(context.Background(), held); err != nil {
		t.Fatal(err)
	}
	if got := delayed.Value(); got != 1 {
		t.Fatalf("plans_delayed_total = %d after one held plan, want 1", got)
	}
	if dss.now() < held.Start {
		t.Errorf("holdPlan returned at %.4f, before the plan's release at %.4f", dss.now(), held.Start)
	}
}
