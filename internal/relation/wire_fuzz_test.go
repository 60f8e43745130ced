package relation_test

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/tpch"
)

// FuzzTableUnmarshal feeds arbitrary bytes to the table decoder. It must
// never panic, never allocate more than a constant times the input length,
// and re-encode anything it accepts to the same bytes.
func FuzzTableUnmarshal(f *testing.F) {
	tables, err := tpch.Generate(tpch.Config{Scale: 0.02, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*relation.Table{{Name: "empty"}}
	for _, name := range tpch.TableNames() {
		seeds = append(seeds, tables[name])
	}
	for _, typ := range []relation.Type{relation.Int, relation.Float, relation.Str, relation.Date} {
		tbl := relation.NewTable("one_"+typ.String(), relation.MustSchema(relation.Column{Name: "c", Type: typ}))
		for i := int64(-2); i <= 2; i++ {
			v := map[relation.Type]relation.Value{
				relation.Int:   relation.IntVal(i * math.MaxInt32),
				relation.Float: relation.FloatVal(float64(i) / 3),
				relation.Str:   relation.StrVal(strings.Repeat("ab", int(i+2))),
				relation.Date:  relation.DateVal(i * 1000),
			}[typ]
			tbl.MustInsert(relation.Row{v})
		}
		seeds = append(seeds, tbl)
	}
	for _, tbl := range seeds {
		data, err := tbl.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var tbl relation.Table
		err := tbl.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		// A cell is 40 bytes and its row header 24, and each takes at
		// least one input byte; the slack covers fixed costs.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+8192); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		for i, r := range tbl.Rows {
			if len(r) != tbl.Schema.Arity() || cap(r) != len(r) {
				t.Fatalf("row %d: len %d cap %d, arity %d", i, len(r), cap(r), tbl.Schema.Arity())
			}
		}
		again, err := tbl.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
