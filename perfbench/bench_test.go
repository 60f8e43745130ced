package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
)

// lastJSON decodes the result line a run printed.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live federations")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "1", "-trace", trace, "-out", t.TempDir()}
				if err := run(time.Now(), args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				r := lastJSON(t, out.String())
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				for name := range r.Metrics {
					if !contains(want, name) {
						t.Errorf("undeclared metric %s", name)
					}
				}
				for _, name := range want {
					if _, ok := r.Metrics[name]; !ok {
						t.Errorf("declared metric %s missing", name)
					}
				}
			})
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestOracleRejectsWrongAnswer(t *testing.T) {
	base, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle([]string{"Q1", "Q13"}, base)
	if err != nil {
		t.Fatal(err)
	}
	right := func(id string) *relation.Table {
		a := orc[id]
		schema := make([]relation.Column, len(a.cols))
		for i, c := range a.cols {
			schema[i] = relation.Column{Name: c, Type: a.rows[0][i].T}
		}
		tbl := relation.NewTable(id, relation.Schema{Cols: schema})
		// Reversed row order: the oracle compares answers as row sets.
		for i := len(a.rows) - 1; i >= 0; i-- {
			tbl.Rows = append(tbl.Rows, a.rows[i].Clone())
		}
		return tbl
	}
	if err := orc["Q1"].check(right("Q1")); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	nudged := right("Q1")
	for k, v := range nudged.Rows[0] {
		if v.T == relation.Float {
			nudged.Rows[0][k] = relation.FloatVal(v.F * (1 + 1e-12))
		}
	}
	if err := orc["Q1"].check(nudged); err != nil {
		t.Fatalf("rounding difference rejected: %v", err)
	}

	wrongs := map[string]func(*relation.Table){
		"changed cell": func(tb *relation.Table) {
			for k, v := range tb.Rows[0] {
				if v.T == relation.Float {
					tb.Rows[0][k] = relation.FloatVal(v.F + 1)
					return
				}
			}
		},
		"missing row":   func(tb *relation.Table) { tb.Rows = tb.Rows[1:] },
		"extra row":     func(tb *relation.Table) { tb.Rows = append(tb.Rows, tb.Rows[0].Clone()) },
		"renamed field": func(tb *relation.Table) { tb.Schema.Cols[0].Name = "other" },
	}
	for name, mutate := range wrongs {
		tb := right("Q1")
		mutate(tb)
		if err := orc["Q1"].check(tb); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := orc["Q1"].check(right("Q13")); err == nil {
		t.Error("another template's answer accepted")
	}
	if err := orc["Q1"].check(nil); err == nil {
		t.Error("missing result accepted")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		{"overlapping children count once", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested child", []span{{Start: 10, End: 50}, {Start: 20, End: 30}}, 60},
		{"children clipped to the parent", []span{{Start: -5, End: 2}, {Start: 90, End: 120}}, 88},
		{"child outside", []span{{Start: 150, End: 200}}, 100},
		{"full cover", []span{{Start: 0, End: 60}, {Start: 60, End: 100}}, 0},
		{"unsorted disjoint", []span{{Start: 70, End: 80}, {Start: 10, End: 20}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAbsentMetricIsNeverZero(t *testing.T) {
	ms := newMetrics()
	ms.ratio("replsync.delta_frac", "fraction", 0, 0)
	ms.set("replsync.staleness_p50_s", "s", mean(nil), "")
	ms.ratio("server.shed_frac", "fraction", 0, 10) // a measured zero stays
	var out bytes.Buffer
	if err := ms.print(&out, []string{"server.shed_frac"}, result{Correct: true, Attempted: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "replsync.") {
		t.Errorf("absent metric printed:\n%s", out.String())
	}
	r := lastJSON(t, out.String())
	if _, ok := r.Metrics["replsync.delta_frac"]; ok {
		t.Error("absent ratio in the result line")
	}
	if v, ok := r.Metrics["server.shed_frac"]; !ok || v.Value != 0 {
		t.Errorf("measured zero lost: %+v", r.Metrics)
	}
	// A declared metric that was not measured fails the run instead of
	// leaving a hole in the result line.
	out.Reset()
	if err := ms.print(&out, []string{"server.shed_frac", "replsync.delta_frac"}, result{Correct: true, Attempted: 1}); err == nil {
		t.Errorf("result printed without a declared metric:\n%s", out.String())
	}

	// A workload without replicas reports no sync layer at all.
	win := &window{m0: map[string]float64{"syncs_total": 0}, m1: map[string]float64{"syncs_total": 0, "queries_total": 5}, writes: &writeLog{}}
	for _, w := range workloads {
		if len(w.ReplicateMS) > 0 {
			continue
		}
		ms := newMetrics()
		counterLayers(ms, &w, win)
		for name := range ms.m {
			if strings.HasPrefix(name, "replsync.") || name == "core.replica_plan_frac" {
				t.Errorf("%s: %s reported without a base", w.Name, name)
			}
		}
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sortedCopy := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := names(bench.EndToEnd), sortedCopy(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, want)
	}
	if got, want := names(bench.PerLayer), sortedCopy(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, want)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.Name)
	}
	if got := names(bench.Workloads); !reflect.DeepEqual(got, sortedCopy(ours)) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, ours)
	}
}

func TestSeededSchedules(t *testing.T) {
	w := workloadByName("write-mix")
	base, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := readSchedule(w, 1, 2), readSchedule(w, 1, 2), readSchedule(w, 2, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different read schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same read schedule")
	}
	mix := func(ops []op) map[string]int {
		m := map[string]int{}
		for _, o := range ops[:len(templates)] {
			m[o.tmpl]++
		}
		return m
	}
	if !reflect.DeepEqual(mix(a), mix(c)) {
		t.Error("seeds change the template mix, not just its order")
	}
	if !reflect.DeepEqual(writeSchedule(w, 1, 2, base), writeSchedule(w, 1, 2, base)) {
		t.Error("same seed, different inserts")
	}
	if reflect.DeepEqual(writeSchedule(w, 1, 2, base), writeSchedule(w, 2, 2, base)) {
		t.Error("different seeds, same inserts")
	}
}

// TestPumpFramesRequests checks that the relay's framing finds exactly one
// end per request, however many type definitions precede it.
func TestPumpFramesRequests(t *testing.T) {
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	reqs := []netproto.Request{
		{Kind: netproto.KindScan, Table: "lineitem"},
		{Kind: netproto.KindExec, SQL: strings.Repeat("x", 300)},
		{Kind: netproto.KindDelta, Table: "orders", Cursor: 7, Columns: []string{"a"}},
	}
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(stream.Len())
	kinds := newKindDecoder()
	var got []netproto.RequestKind
	var framed int64
	var copied bytes.Buffer
	err := pump(&copied, &stream, func(_ time.Time, msg []byte, n int64) {
		got = append(got, kinds.feed(msg))
		framed += n
	}, true)
	if err != io.EOF {
		t.Fatalf("pump ended with %v", err)
	}
	if want := []netproto.RequestKind{netproto.KindScan, netproto.KindExec, netproto.KindDelta}; !reflect.DeepEqual(got, want) {
		t.Errorf("framed kinds %v, want %v", got, want)
	}
	if framed != total || int64(copied.Len()) != total {
		t.Errorf("framed %d bytes, copied %d, stream %d", framed, copied.Len(), total)
	}
}

// TestAdmissionReplay checks that the admission replay reaches workload
// formation and victim selection, and that its counts repeat for a seed.
func TestAdmissionReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the GA on every window")
	}
	w := workloadByName("remote-scan")
	base, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	ops := readSchedule(w, 5, admitArrivals/w.RateQPS)
	counts := func() map[string]metric {
		rw, err := newReplayWorld(w, base)
		if err != nil {
			t.Fatal(err)
		}
		ms := newMetrics()
		if err := rw.replayAdmission(ms, ops, 5, newTracer()); err != nil {
			t.Fatal(err)
		}
		return ms.m
	}
	a, b := counts(), counts()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different counts:\n%v\n%v", a, b)
	}
	for _, name := range []string{"scheduler.workloads_formed", "cluster.victims"} {
		if a[name].Value <= 0 {
			t.Errorf("%s = %v: the replay did not reach that layer", name, a[name].Value)
		}
	}
}
