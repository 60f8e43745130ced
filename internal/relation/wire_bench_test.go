package relation_test

import (
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/tpch"
)

func BenchmarkTableCodec(b *testing.B) {
	tables, err := tpch.Generate(tpch.Config{Scale: 1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	li := tables[tpch.LineItem]
	data, err := li.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := li.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var t relation.Table
			if err := t.UnmarshalBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
