package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/relation"
	"ivdss/internal/replsync"
	"ivdss/internal/sqlmini"
)

// Append-only replica apply: a delta grows the replica's row slice and
// publishes a longer capped prefix. These tests drive replicaApplier
// directly on a DSS whose sync agent never cycles on its own (no Listen),
// so every version is one the test applied.

// newTradesReplicaDSS starts a DSS holding a replica of tradesTable's two
// rows from its initial snapshot.
func newTradesReplicaDSS(t *testing.T) *DSSServer {
	t.Helper()
	_, remoteAddr := startRemote(t, tradesTable(t))
	dss, err := NewDSSServer(DSSConfig{
		Remotes:   map[core.SiteID]string{1: remoteAddr},
		Replicate: map[core.TableID]time.Duration{"trades": time.Hour},
		Rates:     core.DiscountRates{CL: .05, SL: .05},
		TimeScale: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dss.Close() })
	return dss
}

// tradeRow is the j-th trades row appended by these tests.
func tradeRow(j int) relation.Row {
	return relation.Row{relation.IntVal(int64(j % 3)), relation.FloatVal(float64(j))}
}

// replicaOf returns the published trades replica version.
func replicaOf(dss *DSSServer) replicaSnapshot {
	dss.mu.RLock()
	defer dss.mu.RUnlock()
	return dss.replicas["trades"]
}

// TestReplicaApplyConcurrentReaders runs executePlan over the trades
// replica while deltas append to it. Each delta is stamped with its own
// instant, so the freshness an answer reports names the version it read;
// the answer must equal the oracle over that version's row count. Run it
// under -race: new rows land in the array readers scan, past their
// prefix.
func TestReplicaApplyConcurrentReaders(t *testing.T) {
	dss := newTradesReplicaDSS(t)
	ap := replicaApplier{dss}
	const deltas, batch, firstStamp = 40, 5, 1000
	rowsAt := func(syncedAt core.Time) int {
		if syncedAt < firstStamp {
			return 2 // the initial snapshot
		}
		return 2 + batch*(int(syncedAt-firstStamp)+1)
	}
	// Oracle: tradesTable's 30 and -70, then the appended rows j = 2..n-1.
	oracle := func(n int) (int64, float64) {
		sum := -40.0
		for j := 2; j < n; j++ {
			sum += float64(j)
		}
		return int64(n), sum
	}
	stmt, err := sqlmini.Parse("SELECT count(*) AS n, sum(tr.t_amount) AS s FROM trades tr")
	if err != nil {
		t.Fatal(err)
	}
	plan := core.Plan{Access: []core.TableAccess{{Table: "trades", Site: 1, Kind: core.AccessReplica}}}
	read := func() error {
		out, syncedAt, _, err := dss.executePlan(context.Background(), stmt, plan)
		if err != nil {
			return err
		}
		wantN, wantSum := oracle(rowsAt(syncedAt))
		if n, sum := out.Rows[0][0].I, out.Rows[0][1].F; n != wantN || sum != wantSum {
			return fmt.Errorf("version synced at %v: count %d sum %v, want %d and %v", syncedAt, n, sum, wantN, wantSum)
		}
		return nil
	}

	var reads atomic.Int64
	done := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					errs <- read()
					return
				default:
				}
				if err := read(); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}()
	}
	next := 2
	for k := 0; k < deltas && len(errs) == 0; k++ {
		// Interleave: each delta waits for one more completed read.
		for reads.Load() <= int64(k) && len(errs) == 0 {
			runtime.Gosched()
		}
		rows := make([]relation.Row, batch)
		for i := range rows {
			rows[i] = tradeRow(next)
			next++
		}
		if err := ap.ApplyDelta("trades", replsync.Delta{Rows: rows}, core.Time(firstStamp+k)); err != nil {
			errs <- err
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := replicaOf(dss).table.NumRows(); got != next {
		t.Fatalf("replica holds %d rows after every delta, want %d", got, next)
	}
}

// TestReplicaApplyRejectedDeltaPublishesNothing applies a delta with a
// mistyped row mid-batch while the replica's row slice has spare capacity,
// so the batch's good first row lands in a slot past the published length.
// The apply must fail and leave the published version as it was, and the
// next good delta's rows must appear exactly once, with nothing of the
// rejected batch.
func TestReplicaApplyRejectedDeltaPublishesNothing(t *testing.T) {
	dss := newTradesReplicaDSS(t)
	ap := replicaApplier{dss}
	if err := ap.ApplyDelta("trades", replsync.Delta{Rows: []relation.Row{tradeRow(2)}}, 1); err != nil {
		t.Fatal(err)
	}
	held := replicaOf(dss)
	if held.table.NumRows() != 3 || cap(held.rows) == len(held.rows) {
		t.Fatalf("setup: replica has %d rows, capacity %d; want 3 rows and room to grow", held.table.NumRows(), cap(held.rows))
	}

	rejected := []relation.Row{
		{relation.IntVal(7), relation.FloatVal(700)},
		{relation.StrVal("not an account"), relation.FloatVal(701)},
		{relation.IntVal(7), relation.FloatVal(702)},
	}
	if err := ap.ApplyDelta("trades", replsync.Delta{Rows: rejected}, 2); err == nil {
		t.Fatal("a delta with a mistyped row was applied")
	}
	after := replicaOf(dss)
	if after.table != held.table || after.table.NumRows() != 3 || after.syncedAt != held.syncedAt {
		t.Fatalf("rejected delta changed the published replica: %d rows synced at %v, want the 3-row version synced at %v",
			after.table.NumRows(), after.syncedAt, held.syncedAt)
	}

	if err := ap.ApplyDelta("trades", replsync.Delta{Rows: []relation.Row{tradeRow(3), tradeRow(4)}}, 3); err != nil {
		t.Fatal(err)
	}
	want := append(tradesTable(t).Rows, tradeRow(2), tradeRow(3), tradeRow(4))
	got := replicaOf(dss).table.Rows
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica rows after the next good delta:\n got %v\nwant %v", got, want)
	}
	if fmt.Sprint(held.table.Rows) != fmt.Sprint(want[:3]) {
		t.Fatalf("a reader's earlier version changed: %v, want %v", held.table.Rows, want[:3])
	}
}
