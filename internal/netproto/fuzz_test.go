package netproto

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"math"
	"net"
	"reflect"
	"runtime"
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
	f.Add(encodeResponses(f, &Response{Metrics: Metrics{"queries_total": 3, "admission_queue_depth": 1}}))

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

// encodeRequests returns the gob stream a Conn writes for reqs.
func encodeRequests(t testing.TB, reqs ...*Request) []byte {
	t.Helper()
	sc := &streamConn{in: bytes.NewReader(nil)}
	conn := NewConn(sc)
	for _, r := range reqs {
		if err := conn.WriteRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	return sc.out.Bytes()
}

// gobAhead is what gob may allocate ahead of the bytes that fill it: a
// message buffer sized by the claimed length, or a slice sized by the
// claimed element count, each capped at 10 MiB. One failing decode can
// pay for a message buffer, or for an outer slice and one slice nested
// in it.
const gobAhead = 2 * 10 << 20

// FuzzReadRequest decodes arbitrary byte streams as Request messages,
// the bytes every server reads from any client. Decoding must never
// panic, allocation must stay within a linear bound in the input length
// plus gob's fixed read-ahead, and every request it accepts must encode
// again.
func FuzzReadRequest(f *testing.F) {
	tables, err := tpch.Generate(tpch.Config{Scale: 0.02, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeRequests(f,
		&Request{Kind: KindInsert, Table: "nation", Rows: tables[tpch.Nation].Rows},
		&Request{Kind: KindInsert, Table: "region", Rows: tables[tpch.Region].Rows[:1]},
	))
	f.Add(encodeRequests(f,
		&Request{Kind: KindExec, SQL: "SELECT count(*) AS n FROM lineitem l", BusinessValue: .5, TimeoutMillis: 250, Tenant: "gold"},
		&Request{Kind: KindBatch, Batch: []BatchQuery{{SQL: "SELECT 1"}, {SQL: "SELECT r.r_name FROM region r", BusinessValue: 1}}},
	))
	f.Add(encodeRequests(f,
		&Request{Kind: KindSnapshot, Table: "orders", Filter: "o_totalprice > 1000", Columns: []string{"o_orderkey", "o_totalprice"}},
		&Request{Kind: KindDelta, Table: "orders", Cursor: 42, Filter: "o_orderstatus = 'F'", Columns: []string{"o_orderkey"}},
	))
	f.Add(encodeRequests(f, &Request{Kind: KindGossip, Forwarded: true, Gossip: &GossipDigest{
		Node: 1, Version: 9, Clock: 3.5, QueueDepth: 2, Slots: 4, TotalIV: 1.25,
		OpenBreakers: []int{2}, Freshness: []TableStamp{{Table: "orders", At: 3}},
	}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn := NewConn(&streamConn{in: bytes.NewReader(data)})
		var accepted []*Request
		for i := 0; i < 4; i++ {
			req, err := conn.ReadRequest()
			if err != nil {
				break
			}
			accepted = append(accepted, req)
		}
		runtime.ReadMemStats(&after)
		// A cell is 40 bytes and its row header 24, and each takes at
		// least one input byte; 1 MiB covers the decoder's fixed state.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+gobAhead+1<<20); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
		out := NewConn(&streamConn{in: bytes.NewReader(nil)})
		for _, req := range accepted {
			if err := out.WriteRequest(req); err != nil {
				t.Fatalf("decoded request does not encode again: %v", err)
			}
		}
	})
}

// TestWireCarriesNoGobMaps walks every type a Request or Response can
// carry. gob allocates a decoded map by its claimed entry count before
// reading an entry, so one map decoded by gob would let a few bytes from a
// peer demand gigabytes. Types that decode themselves (Metrics, tables)
// check counts against their bytes and are not walked into.
func TestWireCarriesNoGobMaps(t *testing.T) {
	selfDecoding := func(typ reflect.Type) bool {
		p := reflect.PointerTo(typ)
		return p.Implements(reflect.TypeOf((*gob.GobDecoder)(nil)).Elem()) ||
			p.Implements(reflect.TypeOf((*encoding.BinaryUnmarshaler)(nil)).Elem())
	}
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] || selfDecoding(typ) {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map:
			t.Errorf("%s is a gob-decoded map (%s)", path, typ)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if f := typ.Field(i); f.IsExported() {
					walk(f.Type, path+"."+f.Name)
				}
			}
		}
	}
	walk(reflect.TypeOf(Request{}), "Request")
	walk(reflect.TypeOf(Response{}), "Response")
}

// TestMetricsWire round-trips a metric snapshot and refuses encodings
// whose counts or lengths the bytes cannot hold.
func TestMetricsWire(t *testing.T) {
	in := Metrics{"queries_total": 12, "admission_queue_depth": 0, "p": math.Inf(-1), "": 0.5}
	blob, err := in.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var out Metrics
	if err := out.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %v, want %v", out, in)
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"huge count":     append(huge, blob[1:]...),
		"truncated":      blob[:len(blob)-1],
		"trailing bytes": append(append([]byte{}, blob...), 0),
		"long name":      {1, 200, 'a', 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		var m Metrics
		if err := m.GobDecode(bad); err == nil {
			t.Errorf("%s: decoded %v", name, m)
		}
	}
	resp := &Response{Metrics: in}
	conn := NewConn(&streamConn{in: bytes.NewReader(encodeResponses(t, resp))})
	got, err := conn.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Metrics, in) {
		t.Fatalf("over the wire: got %v, want %v", got.Metrics, in)
	}
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
