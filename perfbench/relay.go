package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"ivdss/internal/netproto"
)

// relay is a TCP forwarder the benchmark places in front of a branch site,
// so every DSS-to-branch round trip can be counted and timed from outside
// the program. It frames the gob stream without decoding it: each gob
// message is a length-prefixed blob, type definitions carry a negative
// type id, and one request (or response) ends with its first value
// message. The protocol allows one outstanding request per connection, so
// a request and the next response form one round trip.
type relay struct {
	ln       net.Listener
	upstream string
	tr       *tracer // nil when untraced

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	stats relayStats
	wg    sync.WaitGroup
}

// relayStats accumulates every round trip the relay forwarded.
type relayStats struct {
	calls     int64
	bytesUp   int64
	bytesDown int64
	rttMS     []float64
}

func newRelay(upstream string, tr *tracer) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, upstream: upstream, tr: tr, conns: map[net.Conn]struct{}{}}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// snapshot copies the counters so a caller can take deltas over a window.
func (r *relay) snapshot() relayStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.rttMS = append([]float64(nil), r.stats.rttMS...)
	return s
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.upstream)
		if err != nil {
			_ = c.Close() // the client sees the refusal as a broken connection
			continue
		}
		if !r.track(c, up) {
			return
		}
		r.wg.Add(1)
		go r.serve(c, up)
	}
}

// track registers a connection pair, refusing it once the relay is closed.
func (r *relay) track(c, up net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conns == nil {
		_ = c.Close()
		_ = up.Close()
		return false
	}
	r.conns[c], r.conns[up] = struct{}{}, struct{}{}
	return true
}

// call is one forwarded request awaiting its response.
type call struct {
	id    int64 // traced request the round trip belongs to
	kind  netproto.RequestKind
	start time.Time
	up    int64
}

func (r *relay) serve(c, up net.Conn) {
	defer r.wg.Done()
	pending := make(chan call, 1)
	stop := make(chan struct{})
	done := make(chan struct{})
	var kinds *kindDecoder
	if r.tr != nil {
		kinds = newKindDecoder()
	}
	go func() {
		defer close(done)
		defer close(pending)
		err := pump(up, c, func(first time.Time, msg []byte, n int64) {
			cl := call{start: first, up: n}
			if kinds != nil {
				cl.kind = kinds.feed(msg)
				cl.id = r.tr.current.Load()
			}
			select {
			case pending <- cl:
			case <-stop:
			}
		}, kinds != nil)
		_ = err // a closed connection ends the exchange either way
		_ = up.Close()
	}()
	_ = pump(c, up, func(_ time.Time, _ []byte, n int64) {
		cl, ok := <-pending
		if !ok {
			return
		}
		end := time.Now()
		r.record(cl, end, n)
	}, false)
	close(stop)
	_ = c.Close()
	_ = up.Close()
	<-done
	r.mu.Lock()
	delete(r.conns, c)
	delete(r.conns, up)
	r.mu.Unlock()
}

func (r *relay) record(cl call, end time.Time, down int64) {
	rtt := end.Sub(cl.start)
	r.mu.Lock()
	r.stats.calls++
	r.stats.bytesUp += cl.up
	r.stats.bytesDown += down
	r.stats.rttMS = append(r.stats.rttMS, float64(rtt)/float64(time.Millisecond))
	r.mu.Unlock()
	if r.tr != nil && r.tr.active.Load() {
		r.tr.add(span{ID: cl.id, Name: "relay." + kindName(cl.kind), Start: r.tr.since(cl.start),
			End: r.tr.since(end), BytesUp: cl.up, BytesDown: down})
	}
}

// pump copies src to dst message by message. onDone runs after the last
// message of each request or response has been forwarded, with the time
// its first byte arrived, the bytes of the whole exchange half and — when
// keep is set — those bytes themselves.
func pump(dst io.Writer, src io.Reader, onDone func(first time.Time, msg []byte, n int64), keep bool) error {
	br := bufio.NewReaderSize(src, 64<<10)
	var buf, kept []byte
	var first time.Time
	var n int64
	for {
		b, err := br.ReadByte()
		if err != nil {
			return err
		}
		if n == 0 {
			first = time.Now()
		}
		// A gob unsigned integer below 128 is one byte; above, a byte
		// holding the negated byte count precedes the big-endian value.
		prefix := []byte{b}
		size := uint64(b)
		if b >= 0x80 {
			width := int(-int8(b))
			if width < 1 || width > 8 {
				return errors.New("relay: malformed gob length")
			}
			size = 0
			for i := 0; i < width; i++ {
				c, err := br.ReadByte()
				if err != nil {
					return err
				}
				prefix = append(prefix, c)
				size = size<<8 | uint64(c)
			}
		}
		if size > 1<<30 {
			return errors.New("relay: gob message too large")
		}
		need := len(prefix) + int(size)
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		copy(buf, prefix)
		if _, err := io.ReadFull(br, buf[len(prefix):]); err != nil {
			return err
		}
		if _, err := dst.Write(buf); err != nil {
			return err
		}
		n += int64(len(buf))
		if keep {
			kept = append(kept, buf...)
		}
		if !isTypeDef(buf[len(prefix):]) {
			onDone(first, kept, n)
			n, kept = 0, kept[:0]
		}
	}
}

// isTypeDef reports whether a gob message body defines a type: its leading
// type id is negative, which gob encodes as an odd unsigned integer.
func isTypeDef(body []byte) bool {
	if len(body) == 0 {
		return false
	}
	b := body[0]
	if b < 0x80 {
		return b&1 == 1
	}
	width := int(-int8(b))
	if width < 1 || len(body) <= width {
		return false
	}
	return body[width]&1 == 1
}

// kindDecoder recovers request kinds from a relayed stream by feeding the
// framed messages into a gob decoder of its own; only traced runs pay it.
type kindDecoder struct {
	buf bytes.Buffer
	dec *gob.Decoder
}

func newKindDecoder() *kindDecoder {
	k := &kindDecoder{}
	k.dec = gob.NewDecoder(&k.buf)
	return k
}

func (k *kindDecoder) feed(msg []byte) netproto.RequestKind {
	k.buf.Write(msg)
	var req netproto.Request
	if err := k.dec.Decode(&req); err != nil {
		return 0
	}
	return req.Kind
}

func kindName(k netproto.RequestKind) string {
	switch k {
	case netproto.KindScan:
		return "scan"
	case netproto.KindExec:
		return "exec"
	case netproto.KindSnapshot:
		return "snapshot"
	case netproto.KindDelta:
		return "delta"
	case netproto.KindTables:
		return "tables"
	case netproto.KindInsert:
		return "insert"
	default:
		return "other"
	}
}

// close stops accepting, severs every forwarded connection and waits for
// the relay's goroutines.
func (r *relay) close() {
	_ = r.ln.Close()
	r.mu.Lock()
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	for c := range conns {
		_ = c.Close()
	}
	r.wg.Wait()
}
