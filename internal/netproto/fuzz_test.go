package netproto

import (
	"bytes"
	"net"
	"testing"

	"ivdss/internal/relation"
	"ivdss/internal/tpch"
)

// streamConn is a net.Conn over fixed bytes: reads drain them and writes
// append to out. Conn uses nothing else.
type streamConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *streamConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// encodeResponses returns the gob stream a Conn writes for resps.
func encodeResponses(t testing.TB, resps ...*Response) []byte {
	t.Helper()
	sc := &streamConn{in: bytes.NewReader(nil)}
	conn := NewConn(sc)
	for _, r := range resps {
		if err := conn.WriteResponse(r); err != nil {
			t.Fatal(err)
		}
	}
	return sc.out.Bytes()
}

// FuzzReadResponse decodes arbitrary byte streams as Response messages
// carrying tables. Decoding must never panic, and every table it accepts
// must hold rows of the schema's arity and types.
func FuzzReadResponse(f *testing.F) {
	tables, err := tpch.Generate(tpch.Config{Scale: 0.02, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeResponses(f,
		&Response{Result: tables[tpch.Nation], Meta: &ReportMeta{Value: .5}},
		&Response{Batch: []BatchItem{{Result: tables[tpch.Region]}, {Err: "no table"}}},
	))
	f.Add(encodeResponses(f, &Response{Result: tables[tpch.Supplier], Version: 10}))
	f.Add(encodeResponses(f, &Response{Result: &relation.Table{Name: "empty"}}, &Response{Err: "x"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := NewConn(&streamConn{in: bytes.NewReader(data)})
		for i := 0; i < 4; i++ {
			resp, err := conn.ReadResponse()
			if err != nil {
				return
			}
			checked := []*relation.Table{resp.Result}
			for _, item := range resp.Batch {
				checked = append(checked, item.Result)
			}
			for _, tbl := range checked {
				if tbl == nil {
					continue
				}
				for ri, r := range tbl.Rows {
					if cap(r) != tbl.Schema.Arity() {
						t.Fatalf("row %d: cap %d, arity %d", ri, cap(r), tbl.Schema.Arity())
					}
				}
				if _, err := tbl.MarshalBinary(); err != nil {
					t.Fatalf("decoded table does not re-encode: %v", err)
				}
			}
		}
	})
}

// TestWriteResponseRefusesMalformedTable checks that a table whose rows
// disagree with its schema never reaches the wire.
func TestWriteResponseRefusesMalformedTable(t *testing.T) {
	bad := relation.NewTable("bad", relation.MustSchema(relation.Column{Name: "n", Type: relation.Int}))
	bad.Rows = append(bad.Rows, relation.Row{relation.StrVal("not an int")})
	conn := NewConn(&streamConn{in: bytes.NewReader(nil)})
	if err := conn.WriteResponse(&Response{Result: bad}); err == nil {
		t.Fatal("a malformed table was encoded")
	}
}

// TestReadResponseRejectsCorruptTable flips the table blob's version byte
// inside an otherwise valid stream: the decode fails instead of yielding a
// table.
func TestReadResponseRejectsCorruptTable(t *testing.T) {
	tbl := relation.NewTable("marker", relation.MustSchema(relation.Column{Name: "n", Type: relation.Int}))
	tbl.MustInsert(relation.Row{relation.IntVal(7)})
	blob, err := tbl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stream := encodeResponses(t, &Response{Result: tbl})
	at := bytes.Index(stream, blob)
	if at < 0 {
		t.Fatal("the table's columnar blob is not in the stream")
	}
	stream[at]++ // an unknown version
	conn := NewConn(&streamConn{in: bytes.NewReader(stream)})
	if resp, err := conn.ReadResponse(); err == nil {
		t.Fatalf("corrupt table decoded: %+v", resp.Result)
	}
}
