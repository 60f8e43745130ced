package replication

import (
	"math"
	"sync"
	"testing"

	"ivdss/internal/core"
)

// The manager is mutated by the live sync agent (RecordSync, Reschedule,
// Register/Unregister) while request handlers read StateFor and Staleness
// concurrently. This test hammers every combination under -race.
func TestManagerConcurrentAdvanceStateFor(t *testing.T) {
	m := NewManager()
	tables := []core.TableID{"a", "b", "c", "d"}
	for i, id := range tables {
		sched, err := Periodic(1+core.Duration(i), 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(id, sched); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 400
	var wg sync.WaitGroup
	// Writer: walks the clock forward applying scheduled syncs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m.Advance(core.Time(i))
		}
	}()
	// Writer: records live completions and rewrites the future schedule of
	// its own table, like the sync agent does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Register("live", Schedule{}); err != nil {
			t.Error(err)
			return
		}
		// The live timeline starts past the clock the other writer walks:
		// Advance would otherwise complete this table's predicted syncs
		// ahead of the agent, and the agent's next real completion would
		// then precede them, which RecordSync rightly refuses. No caller
		// drives one table through both, so only the locking is shared.
		at := core.Time(iters)
		for i := 0; i < iters; i++ {
			at += .5
			if err := m.RecordSync("live", at); err != nil {
				t.Error(err)
				return
			}
			if err := m.Reschedule("live", []core.Time{at + 1, at + 2}); err != nil {
				t.Error(err)
				return
			}
		}
		m.Unregister("live")
	}()
	// Readers: the planner's view, staleness, and enumeration.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				now := core.Time(i)
				for _, id := range tables {
					if rs := m.StateFor(id, now, 10); rs == nil {
						t.Errorf("StateFor(%s) = nil", id)
						return
					}
					m.Staleness(id, now)
				}
				m.StateFor("live", now, 10) // may be nil mid-register: fine
				m.Tables()
				m.NextSyncAt()
				m.QoSViolations(now, 3)
			}
		}()
	}
	wg.Wait()
}

func TestRecordSyncSupersedesPendingEntries(t *testing.T) {
	m := NewManager()
	if err := m.Register("t", Schedule{Times: []core.Time{10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	// A live completion at 21 supersedes the pending syncs at 10 and 20.
	if err := m.RecordSync("t", 21); err != nil {
		t.Fatal(err)
	}
	rs := m.StateFor("t", 22, 0)
	if rs.LastSync != 21 {
		t.Fatalf("LastSync = %v, want 21", rs.LastSync)
	}
	if len(rs.NextSyncs) != 1 || rs.NextSyncs[0] != 30 {
		t.Fatalf("NextSyncs = %v, want [30]", rs.NextSyncs)
	}
	if s, ok := m.Staleness("t", 25); !ok || s != 4 {
		t.Fatalf("Staleness = %v,%v, want 4,true", s, ok)
	}
	// Recording the same instant again is a no-op; going backwards errors.
	if err := m.RecordSync("t", 21); err != nil {
		t.Fatalf("idempotent re-record: %v", err)
	}
	if err := m.RecordSync("t", 20); err == nil {
		t.Fatal("RecordSync before last completion should error")
	}
	if err := m.RecordSync("missing", 1); err == nil {
		t.Fatal("RecordSync on unregistered table should error")
	}
}

func TestRescheduleReplacesFuture(t *testing.T) {
	m := NewManager()
	if err := m.Register("t", Schedule{Times: []core.Time{5, 10, 15}}); err != nil {
		t.Fatal(err)
	}
	m.Advance(6) // the sync at 5 completes
	if err := m.Reschedule("t", []core.Time{8, 11}); err != nil {
		t.Fatal(err)
	}
	rs := m.StateFor("t", 6, 0)
	if rs.LastSync != 5 {
		t.Fatalf("LastSync = %v, want 5", rs.LastSync)
	}
	if len(rs.NextSyncs) != 2 || rs.NextSyncs[0] != 8 || rs.NextSyncs[1] != 11 {
		t.Fatalf("NextSyncs = %v, want [8 11]", rs.NextSyncs)
	}
	// A future entry at or before the last completion is rejected.
	if err := m.Reschedule("t", []core.Time{5}); err == nil {
		t.Fatal("Reschedule at last completed sync should error")
	}
	if err := m.Reschedule("t", []core.Time{9, 9}); err == nil {
		t.Fatal("non-ascending reschedule should error")
	}
	if err := m.Reschedule("missing", []core.Time{9}); err == nil {
		t.Fatal("Reschedule on unregistered table should error")
	}
	// Clearing the future entirely is allowed.
	if err := m.Reschedule("t", nil); err != nil {
		t.Fatal(err)
	}
	if rs := m.StateFor("t", 6, 0); len(rs.NextSyncs) != 0 {
		t.Fatalf("NextSyncs after clearing = %v, want none", rs.NextSyncs)
	}
}

func TestUnregister(t *testing.T) {
	m := NewManager()
	if err := m.Register("t", Schedule{Times: []core.Time{1}}); err != nil {
		t.Fatal(err)
	}
	if !m.Unregister("t") {
		t.Fatal("Unregister should report the table existed")
	}
	if m.Replicated("t") {
		t.Fatal("table still replicated after Unregister")
	}
	if m.StateFor("t", 2, 0) != nil {
		t.Fatal("StateFor after Unregister should be nil")
	}
	if m.Unregister("t") {
		t.Fatal("second Unregister should report absence")
	}
	// Re-registering after demotion is allowed (a later promotion).
	if err := m.Register("t", Schedule{}); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialDeterministicInSeed(t *testing.T) {
	a, err := Exponential(5, 42, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Exponential(5, 42, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Times) == 0 || len(a.Times) != len(b.Times) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a.Times), len(b.Times))
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a.Times[i], b.Times[i])
		}
	}
	c, err := Exponential(5, 43, 1000)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Times) == len(c.Times)
	if same {
		for i := range a.Times {
			if a.Times[i] != c.Times[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestExponentialMeanConvergence(t *testing.T) {
	const mean = 4.0
	s, err := Exponential(mean, 7, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Times) < 1000 {
		t.Fatalf("only %d syncs over the horizon; want a large sample", len(s.Times))
	}
	var sum float64
	prev := core.Time(0)
	for _, at := range s.Times {
		sum += at - prev
		prev = at
	}
	got := sum / float64(len(s.Times))
	if math.Abs(got-mean)/mean > .05 {
		t.Fatalf("mean inter-sync gap %.3f, want %.3f ±5%%", got, mean)
	}
}

func TestExponentialRejectsNonPositive(t *testing.T) {
	if _, err := Exponential(0, 1, 100); err == nil {
		t.Fatal("zero mean should error")
	}
	if _, err := Exponential(-2, 1, 100); err == nil {
		t.Fatal("negative mean should error")
	}
	if _, err := Exponential(5, 1, 0); err == nil {
		t.Fatal("zero horizon should error")
	}
	if _, err := Exponential(5, 1, -10); err == nil {
		t.Fatal("negative horizon should error")
	}
}
