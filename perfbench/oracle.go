package main

import (
	"fmt"
	"math"
	"sort"

	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"
	"ivdss/internal/tpch"
)

// templateSQL maps TPC-H template IDs to their SQL.
var templateSQL = func() map[string]string {
	m := map[string]string{}
	for _, q := range tpch.Queries() {
		m[q.ID] = q.SQL
	}
	return m
}()

// answer is a result in canonical form: rows sorted, so answers produced
// along different plans (pushdown, replica, base scan) compare equal.
type answer struct {
	cols []string
	rows []relation.Row
}

func canonical(t *relation.Table) answer {
	a := answer{rows: append([]relation.Row(nil), t.Rows...)}
	for _, c := range t.Schema.Cols {
		a.cols = append(a.cols, c.Name)
	}
	sort.Slice(a.rows, func(i, j int) bool { return rowLess(a.rows[i], a.rows[j]) })
	return a
}

func rowLess(x, y relation.Row) bool {
	for k := range x {
		if k >= len(y) {
			return false
		}
		c, err := relation.Compare(x[k], y[k])
		if err != nil {
			return x[k].T < y[k].T
		}
		if c != 0 {
			return c < 0
		}
	}
	return len(x) < len(y)
}

// floatTol is the relative tolerance on float cells: sums accumulated in a
// different row order along another plan differ in the last bits.
const floatTol = 1e-9

// check compares a result against the oracle's answer and says how they
// differ, or returns nil when they agree.
func (a answer) check(t *relation.Table) error {
	if t == nil {
		return fmt.Errorf("no result")
	}
	got := canonical(t)
	if len(got.cols) != len(a.cols) {
		return fmt.Errorf("%d columns, want %d", len(got.cols), len(a.cols))
	}
	for i := range a.cols {
		if got.cols[i] != a.cols[i] {
			return fmt.Errorf("column %d is %q, want %q", i, got.cols[i], a.cols[i])
		}
	}
	if len(got.rows) != len(a.rows) {
		return fmt.Errorf("%d rows, want %d", len(got.rows), len(a.rows))
	}
	for i := range a.rows {
		if len(got.rows[i]) != len(a.rows[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(got.rows[i]), len(a.rows[i]))
		}
		for k, want := range a.rows[i] {
			if !cellEqual(got.rows[i][k], want) {
				return fmt.Errorf("row %d column %s is %v, want %v", i, a.cols[k], got.rows[i][k], want)
			}
		}
	}
	return nil
}

// checkShape compares only the result's columns: the check for reads that
// may see any prefix of concurrent inserts.
func (a answer) checkShape(t *relation.Table) error {
	if t == nil {
		return fmt.Errorf("no result")
	}
	if len(t.Schema.Cols) != len(a.cols) {
		return fmt.Errorf("%d columns, want %d", len(t.Schema.Cols), len(a.cols))
	}
	for i, c := range t.Schema.Cols {
		if c.Name != a.cols[i] {
			return fmt.Errorf("column %d is %q, want %q", i, c.Name, a.cols[i])
		}
	}
	return nil
}

func cellEqual(got, want relation.Value) bool {
	if got.T == relation.Float || want.T == relation.Float {
		g, ok1 := got.AsFloat()
		w, ok2 := want.AsFloat()
		if !ok1 || !ok2 {
			return false
		}
		return math.Abs(g-w) <= floatTol*math.Max(1, math.Max(math.Abs(g), math.Abs(w)))
	}
	return relation.Equal(got, want)
}

// oracle holds every template's answer over one catalog, computed by the
// reference path: sqlmini over the whole catalog in one process.
type oracle map[string]answer

func newOracle(templates []string, tables map[string]*relation.Table) (oracle, error) {
	cat := sqlmini.NewMapCatalog(tables)
	o := oracle{}
	for _, id := range templates {
		t, err := sqlmini.Run(templateSQL[id], cat)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", id, err)
		}
		o[id] = canonical(t)
	}
	return o, nil
}
