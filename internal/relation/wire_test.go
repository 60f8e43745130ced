package relation

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// wireSample has one column of every type and rows at the edges of each:
// empty strings, NaN, ±Inf, −0, the int64 extremes and negative dates.
func wireSample() *Table {
	tbl := NewTable("edges", MustSchema(
		Column{"i", Int}, Column{"f", Float}, Column{"s", Str}, Column{"d", Date},
	))
	tbl.MustInsert(Row{IntVal(math.MinInt64), FloatVal(math.NaN()), StrVal(""), DateVal(-719162)})
	tbl.MustInsert(Row{IntVal(math.MaxInt64), FloatVal(math.Inf(1)), StrVal("héllo, wörld"), DateVal(-1)})
	tbl.MustInsert(Row{IntVal(0), FloatVal(math.Inf(-1)), StrVal(""), DateVal(0)})
	tbl.MustInsert(Row{IntVal(-1), FloatVal(math.Copysign(0, -1)), StrVal(strings.Repeat("z", 300)), DateOf(1996, 3, 13)})
	tbl.MustInsert(Row{IntVal(1), FloatVal(math.Float64frombits(0x7ff8_0000_0000_0bad)), StrVal("\x00\xff"), DateVal(math.MinInt64)})
	return tbl
}

// sameBits compares tables cell by cell, floats by their bits.
func sameBits(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Name != want.Name || got.Schema.String() != want.Schema.String() {
		t.Fatalf("header %s(%s), want %s(%s)", got.Name, got.Schema, want.Name, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for ri, r := range want.Rows {
		for ci, w := range r {
			g := got.Rows[ri][ci]
			if g.T != w.T || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Errorf("row %d col %d: got %+v, want %+v", ri, ci, g, w)
			}
		}
	}
}

func roundTrip(t *testing.T, in *Table) *Table {
	t.Helper()
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Table
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	again, err := out.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-encoding a decoded table changed its bytes")
	}
	return &out
}

func TestWireRoundTripEveryType(t *testing.T) {
	in := wireSample()
	sameBits(t, roundTrip(t, in), in)
}

func TestWireRoundTripZeroRows(t *testing.T) {
	in := NewTable("empty", MustSchema(Column{"a", Int}, Column{"b", Str}))
	out := roundTrip(t, in)
	sameBits(t, out, in)
	if out.Rows != nil {
		t.Errorf("zero rows decoded as %#v, want nil", out.Rows)
	}
	none := roundTrip(t, &Table{Name: "nothing"})
	if none.Name != "nothing" || none.Schema.Cols != nil || none.Rows != nil {
		t.Errorf("zero-column table decoded as %+v", none)
	}
}

func TestWireRowsAreIsolated(t *testing.T) {
	out := roundTrip(t, wireSample())
	for i, r := range out.Rows {
		if cap(r) != out.Schema.Arity() {
			t.Fatalf("row %d: cap %d, want arity %d", i, cap(r), out.Schema.Arity())
		}
	}
	next := out.Rows[1][0]
	_ = append(out.Rows[0], IntVal(42))
	if out.Rows[1][0] != next {
		t.Fatal("appending to one decoded row overwrote the next")
	}
}

func TestWireMarshalRefusesBadRows(t *testing.T) {
	schema := MustSchema(Column{"a", Int}, Column{"b", Str})
	cases := map[string]*Table{
		"short row":     {Name: "t", Schema: schema, Rows: []Row{{IntVal(1)}}},
		"long row":      {Name: "t", Schema: schema, Rows: []Row{{IntVal(1), StrVal("x"), IntVal(2)}}},
		"cell type":     {Name: "t", Schema: schema, Rows: []Row{{IntVal(1), IntVal(2)}}},
		"zero value":    {Name: "t", Schema: schema, Rows: []Row{{IntVal(1), {}}}},
		"column type":   {Name: "t", Schema: Schema{Cols: []Column{{"a", Type(9)}}}},
		"rows, no cols": {Name: "t", Rows: []Row{{}}},
	}
	for name, tbl := range cases {
		if _, err := tbl.MarshalBinary(); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

func TestWireUnmarshalRejects(t *testing.T) {
	good, err := wireSample().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The header of a one-Int-column table named "t": version, name,
	// column count, column "a" of type Int.
	header := []byte{wireVersion, 1, 't', 1, 1, 'a', byte(Int)}
	cases := map[string][]byte{
		"empty input":         {},
		"version 0":           append([]byte{0}, good[1:]...),
		"version 2":           append([]byte{2}, good[1:]...),
		"trailing byte":       append(append([]byte(nil), good...), 0),
		"rows beyond bytes":   append(append([]byte(nil), header...), 3, 2, 4),
		"huge row count":      append(append([]byte(nil), header...), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"rows, no columns":    {wireVersion, 0, 0, 1},
		"many rows, no cols":  {wireVersion, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"non-minimal varint":  append(append([]byte(nil), header...), 1, 0x80, 0x00),
		"non-minimal count":   {wireVersion, 0x80, 0x00, 0, 0},
		"invalid column type": {wireVersion, 0, 1, 1, 'a', 7, 0},
		"string past end":     {wireVersion, 0, 1, 1, 'a', byte(Str), 1, 5, 'x'},
	}
	for name, data := range cases {
		tbl := Table{Name: "kept"}
		err := tbl.UnmarshalBinary(data)
		if err == nil {
			t.Errorf("%s: decoded %+v", name, tbl)
			continue
		}
		if !errors.Is(err, errWire) {
			t.Errorf("%s: error %v does not wrap errWire", name, err)
		}
		if tbl.Name != "kept" {
			t.Errorf("%s: a failed decode changed the table", name)
		}
	}
	// No proper prefix of a valid encoding decodes.
	for n := 0; n < len(good); n++ {
		var tbl Table
		if err := tbl.UnmarshalBinary(good[:n]); err == nil {
			t.Fatalf("prefix of %d of %d bytes decoded", n, len(good))
		}
	}
}
