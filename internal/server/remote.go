// Package server implements the live deployment: RemoteServer is a branch
// database server holding base tables; DSSServer is the local federation
// server that maintains replicas on synchronization cycles, plans queries
// by information value, and answers clients over TCP.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/sqlmini"

	"ivdss/internal/wall"
)

// RemoteServer serves base tables: scans for replication pulls, local SQL
// execution (query pushdown), and row inserts that stand in for branch
// OLTP traffic.
type RemoteServer struct {
	mu     sync.RWMutex
	tables map[string]*relation.Table
	// scanDelay simulates WAN latency on every scan and exec; loopback
	// demos use it so remote reads genuinely cost more than replicas.
	scanDelay time.Duration
	// requestTimeout is a server-side cap on each request's work,
	// composed with (never extending) the caller's wire deadline.
	requestTimeout time.Duration
	// execOpts runs pushed-down SQL over a cache of the base tables'
	// columnar images; its row-count check notices appends.
	execOpts sqlmini.Options

	listener  net.Listener
	live      connSet
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewRemoteServer returns a server with no tables.
func NewRemoteServer() *RemoteServer {
	return &RemoteServer{
		tables:   make(map[string]*relation.Table),
		execOpts: sqlmini.Options{Cache: sqlmini.NewExecCache()},
		closed:   make(chan struct{}),
	}
}

// SetScanDelay makes every scan and query execution pause for d first,
// simulating WAN distance. Call before Listen.
func (s *RemoteServer) SetScanDelay(d time.Duration) { s.scanDelay = d }

// SetRequestTimeout caps the work spent on any single request at d,
// regardless of the deadline the caller stamped on the wire — protection
// against clients that ask for unbounded scans. The caller's own budget
// still applies when it is shorter. Zero means no cap. Call before Listen.
func (s *RemoteServer) SetRequestTimeout(d time.Duration) { s.requestTimeout = d }

// AddTable installs a base table (before or after Serve).
func (s *RemoteServer) AddTable(t *relation.Table) error {
	name := strings.ToLower(t.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("server: table %s already installed", name)
	}
	s.tables[name] = t
	return nil
}

// Tables lists the installed table names, sorted.
func (s *RemoteServer) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Listen binds the server to addr (use "127.0.0.1:0" for an ephemeral
// port) and starts serving in the background. It returns the bound
// address.
func (s *RemoteServer) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return l.Addr().String(), nil
}

func (s *RemoteServer) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("server: accept: %v", err)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			conn := netproto.NewConn(raw)
			s.live.add(conn)
			defer s.live.remove(conn)
			s.handleConn(conn)
		}()
	}
}

func (s *RemoteServer) handleConn(conn *netproto.Conn) {
	defer conn.Close()
	for {
		req, err := conn.ReadRequest()
		if err != nil {
			return // EOF or broken pipe: the client is done
		}
		resp := s.handle(req)
		if err := conn.WriteResponse(resp); err != nil {
			return
		}
	}
}

func (s *RemoteServer) handle(req *netproto.Request) *netproto.Response {
	// The wire deadline the caller stamped on the request bounds this
	// server's work too: a coordinator that has stopped waiting must not
	// keep a branch server scanning on its behalf. The server's own
	// request cap layers underneath, so context.WithTimeout keeps
	// whichever deadline is sooner.
	base := context.Background() //lint:allow ctxcheck(TCP request root: remote callers ship their budget on the wire, decoded below)
	if s.requestTimeout > 0 {
		var capCancel context.CancelFunc
		base, capCancel = context.WithTimeout(base, s.requestTimeout)
		defer capCancel()
	}
	ctx, cancel := req.BudgetContext(base)
	defer cancel()

	switch req.Kind {
	case netproto.KindPing:
		return &netproto.Response{}

	case netproto.KindTables:
		return &netproto.Response{Tables: s.Tables()}

	case netproto.KindScan:
		if err := s.waitScanDelay(ctx); err != nil {
			return &netproto.Response{Err: err.Error(), Expired: true}
		}
		snapshot, ok := s.prefix(req.Table)
		if !ok {
			return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
		}
		return &netproto.Response{Result: snapshot}

	case netproto.KindSnapshot:
		// A versioned full image for replication: the version is the row
		// count, which is a complete change cursor because base tables are
		// append-only (Insert is the only mutation). A view pull carries a
		// delta projection (Filter/Columns); the version still counts base
		// rows so filtered and unfiltered pulls share one cursor space.
		if err := s.waitScanDelay(ctx); err != nil {
			return &netproto.Response{Err: err.Error(), Expired: true}
		}
		snapshot, ok := s.prefix(req.Table)
		if !ok {
			return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
		}
		version := uint64(snapshot.NumRows())
		if req.Filter != "" || req.Columns != nil {
			shipped, err := projectForWire(ctx, snapshot, snapshot.Rows, req.Filter, req.Columns)
			if err != nil {
				return &netproto.Response{Err: err.Error(), Expired: ctx.Err() != nil}
			}
			snapshot = shipped
		}
		return &netproto.Response{Result: snapshot, Version: version}

	case netproto.KindDelta:
		// The change set since the caller's cursor: the appended row
		// suffix. A cursor ahead of the table means the caller's history is
		// no longer valid here (e.g. this site restarted with fewer rows) —
		// answer Resync so it falls back to a full snapshot.
		if err := s.waitScanDelay(ctx); err != nil {
			return &netproto.Response{Err: err.Error(), Expired: true}
		}
		snapshot, ok := s.prefix(req.Table)
		if !ok {
			return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
		}
		version := uint64(snapshot.NumRows())
		if req.Cursor > version {
			return &netproto.Response{Version: version, Resync: true}
		}
		rows := snapshot.Rows[req.Cursor:]
		if req.Filter != "" || req.Columns != nil {
			shipped, err := projectForWire(ctx, snapshot, rows, req.Filter, req.Columns)
			if err != nil {
				return &netproto.Response{Err: err.Error(), Expired: ctx.Err() != nil}
			}
			rows = shipped.Rows
		}
		return &netproto.Response{DeltaRows: rows, Version: version}

	case netproto.KindExec:
		if err := s.waitScanDelay(ctx); err != nil {
			return &netproto.Response{Err: err.Error(), Expired: true}
		}
		s.mu.RLock()
		cat := sqlmini.NewMapCatalog(s.tables)
		out, err := sqlmini.RunWith(ctx, req.SQL, cat, s.execOpts)
		s.mu.RUnlock()
		if err != nil {
			return &netproto.Response{Err: err.Error(), Expired: ctx.Err() != nil}
		}
		return &netproto.Response{Result: out}

	case netproto.KindInsert:
		s.mu.Lock()
		defer s.mu.Unlock()
		t, ok := s.tables[strings.ToLower(req.Table)]
		if !ok {
			return &netproto.Response{Err: fmt.Sprintf("no table %q", req.Table)}
		}
		for i, row := range req.Rows {
			if err := t.Insert(row); err != nil {
				return &netproto.Response{Err: fmt.Sprintf("row %d: %v", i, err)}
			}
		}
		return &netproto.Response{}

	default:
		return &netproto.Response{Err: fmt.Sprintf("unsupported request kind %d", int(req.Kind))}
	}
}

// prefix returns the named table as it stands now, without copying: its
// rows up to the current count, capped there. Base tables are append-only
// (Insert is their only mutation), so the prefix taken under the read lock
// stays valid after it is released, while later inserts land beyond its
// capacity. Callers must treat the rows as read-only.
func (s *RemoteServer) prefix(name string) (*relation.Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	n := len(t.Rows)
	return &relation.Table{Name: t.Name, Schema: t.Schema, Rows: t.Rows[:n:n]}, true
}

// projectForWire applies a view's delta projection — the ViewWire filter
// and column subset — to candidate rows before they cross the wire, by
// running the shipping SELECT over a scratch table holding just those
// rows. The schema (and the query's FROM name) come from the base table.
func projectForWire(ctx context.Context, base *relation.Table, rows []relation.Row, filter string, columns []string) (*relation.Table, error) {
	name := strings.ToLower(base.Name)
	scratch := relation.NewTable(base.Name, base.Schema)
	scratch.Rows = rows
	out, err := sqlmini.RunContext(ctx, sqlmini.WireSQL(name, filter, columns), sqlmini.MapCatalog{name: scratch})
	if err != nil {
		return nil, fmt.Errorf("server: delta projection on %s: %w", name, err)
	}
	return out, nil
}

// waitScanDelay pauses for the simulated WAN latency, giving up early if
// the request's wire deadline passes first.
func (s *RemoteServer) waitScanDelay(ctx context.Context) error {
	if s.scanDelay <= 0 {
		return nil
	}
	t := wall.NewTimer(s.scanDelay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Close stops the listener and waits for in-flight connections. It is
// idempotent.
func (s *RemoteServer) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.listener != nil {
			err = s.listener.Close()
		}
		s.live.closeAll()
		s.wg.Wait()
	})
	return err
}
