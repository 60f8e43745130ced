package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire form of a Table: the columnar binary encoding gob carries for every
// *Table a message holds (gob prefers encoding.BinaryMarshaler over
// reflection). Layout, all counts as unsigned varints:
//
//	version byte (wireVersion)
//	name length, name bytes
//	column count, then per column: name length, name bytes, type byte
//	row count
//	per column, every row's cell:
//	  Int, Date  zig-zag varint
//	  Float      8 bytes little-endian (IEEE bits, NaN payloads kept)
//	  Str        every length, then the concatenated bytes
//
// Varints must be minimal, so every accepted encoding re-encodes to the
// same bytes.

// wireVersion is the leading byte of the only encoding understood.
const wireVersion byte = 1

// errWire prefixes every decoding failure.
var errWire = errors.New("relation: decode table")

// MarshalBinary implements encoding.BinaryMarshaler. Like Insert, it
// refuses a row whose arity or cell types disagree with the schema.
func (t *Table) MarshalBinary() ([]byte, error) {
	cols := t.Schema.Cols
	if len(cols) == 0 && len(t.Rows) > 0 {
		return nil, fmt.Errorf("relation: encode table %s: %d rows but no columns", t.Name, len(t.Rows))
	}
	size := 1 + 3*binary.MaxVarintLen64 + len(t.Name)
	for _, c := range cols {
		if c.Type < Int || c.Type > Date {
			return nil, fmt.Errorf("relation: encode table %s: column %q has invalid type %d", t.Name, c.Name, int(c.Type))
		}
		size += binary.MaxVarintLen64 + len(c.Name) + 1
		switch c.Type {
		case Float:
			size += 8 * len(t.Rows)
		default:
			size += 3 * len(t.Rows)
		}
	}
	for ri, r := range t.Rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("relation: encode table %s: row %d arity %d, want %d", t.Name, ri, len(r), len(cols))
		}
		for ci, v := range r {
			if v.T != cols[ci].Type {
				return nil, fmt.Errorf("relation: encode table %s: row %d column %s wants %s, got %s",
					t.Name, ri, cols[ci].Name, cols[ci].Type, v.T)
			}
			size += len(v.S)
		}
	}

	buf := make([]byte, 0, size)
	buf = append(buf, wireVersion)
	buf = appendWireString(buf, t.Name)
	buf = binary.AppendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = appendWireString(buf, c.Name)
		buf = append(buf, byte(c.Type))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Rows)))
	for ci, c := range cols {
		switch c.Type {
		case Int, Date:
			for _, r := range t.Rows {
				buf = binary.AppendVarint(buf, r[ci].I)
			}
		case Float:
			for _, r := range t.Rows {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r[ci].F))
			}
		case Str:
			for _, r := range t.Rows {
				buf = binary.AppendUvarint(buf, uint64(len(r[ci].S)))
			}
			for _, r := range t.Rows {
				buf = append(buf, r[ci].S...)
			}
		}
	}
	return buf, nil
}

func appendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Every count is
// checked against the bytes left before anything is allocated, so the
// memory a decode takes is bounded by a constant times len(data). The
// rows share one backing array, each cut with capacity equal to the arity
// so appending to one row never overwrites the next; the strings of a
// column share one allocation. t is left unchanged on error.
func (t *Table) UnmarshalBinary(data []byte) error {
	if len(data) == 0 || data[0] != wireVersion {
		return fmt.Errorf("%w: unknown encoding version", errWire)
	}
	d := wireDecoder{buf: data[1:]}
	name := d.str()
	// A column takes at least two bytes: its name's length and its type.
	ncols := d.count(2)
	var cols []Column
	if ncols > 0 {
		cols = make([]Column, ncols)
	}
	rowBytes := 0 // the fewest bytes one row can take
	for i := range cols {
		cols[i].Name = d.str()
		typ := Type(d.typeByte())
		if d.err == nil && (typ < Int || typ > Date) {
			d.fail("column %q has invalid type %d", cols[i].Name, int(typ))
		}
		cols[i].Type = typ
		if typ == Float {
			rowBytes += 8
		} else {
			rowBytes++
		}
	}
	nrows := d.count(rowBytes)
	if d.err != nil {
		return d.err
	}

	// Bound and validate every column first, then fill the rows in order:
	// writing row-major keeps the stores sequential in the backing array.
	cursors := make([]colCursor, ncols)
	for ci, c := range cols {
		cursors[ci] = d.column(nrows, c.Type)
	}
	if d.err == nil && len(d.buf) > 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return d.err
	}
	var rows []Row
	if nrows > 0 {
		cells := make([]Value, nrows*ncols)
		rows = make([]Row, nrows)
		for i := range rows {
			row := cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
			for ci := range cursors {
				row[ci] = cursors[ci].next()
			}
			rows[i] = row
		}
	}
	t.Name, t.Schema, t.Rows = name, Schema{Cols: cols}, rows
	return nil
}

// wireDecoder consumes an encoded table front to back. The first failure
// sticks in err; later reads return zero values.
type wireDecoder struct {
	buf []byte
	err error
}

func (d *wireDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{errWire}, args...)...)
	}
}

// uvarint reads one minimal unsigned varint.
func (d *wireDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.fail("malformed varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a count of items that take at least per bytes each, and
// fails unless the bytes left can hold that many. Items of zero bytes
// cannot be held at all, so only a zero count passes with per == 0.
func (d *wireDecoder) count(per int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > 0 && (per == 0 || n > uint64(len(d.buf)/per)) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.buf))
		return 0
	}
	return int(n)
}

func (d *wireDecoder) typeByte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("truncated")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *wireDecoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// colCursor walks one validated column's cells in row order.
type colCursor struct {
	typ  Type
	buf  []byte // the cells, or for Str the lengths
	blob string // Str only: every string of the column, concatenated
}

func (c *colCursor) next() Value {
	switch c.typ {
	case Int, Date:
		v, k := binary.Varint(c.buf)
		c.buf = c.buf[k:]
		return Value{T: c.typ, I: v}
	case Float:
		v := math.Float64frombits(binary.LittleEndian.Uint64(c.buf))
		c.buf = c.buf[8:]
		return Value{T: Float, F: v}
	default:
		l, k := binary.Uvarint(c.buf)
		c.buf = c.buf[k:]
		s := c.blob[:l]
		c.blob = c.blob[l:]
		return Value{T: Str, S: s}
	}
}

// column validates the next column of n cells of type typ and returns a
// cursor over them.
func (d *wireDecoder) column(n int, typ Type) colCursor {
	if d.err != nil {
		return colCursor{}
	}
	start := d.buf
	switch typ {
	case Int, Date:
		for r := 0; r < n; r++ {
			d.uvarint() // a zig-zag varint has the unsigned encoding
		}
	case Float:
		if len(d.buf) < 8*n {
			d.fail("truncated float column")
			return colCursor{}
		}
		d.buf = d.buf[8*n:]
	case Str:
		total := 0
		for r := 0; r < n; r++ {
			total += d.count(1)
			if d.err == nil && total > len(d.buf) {
				d.fail("string column needs %d bytes, %d left", total, len(d.buf))
			}
		}
		if d.err != nil {
			return colCursor{}
		}
		cur := colCursor{typ: Str, buf: start[:len(start)-len(d.buf)], blob: string(d.buf[:total])}
		d.buf = d.buf[total:]
		return cur
	}
	return colCursor{typ: typ, buf: start[:len(start)-len(d.buf)]}
}
