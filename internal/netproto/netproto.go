// Package netproto is the wire protocol between the DSS (federation)
// server, the remote site servers, and clients: request / response pairs
// over a TCP connection, one outstanding request per connection at a
// time. gob frames the messages; every *relation.Table a message carries
// (Response.Result, BatchItem.Result) travels inside it as one columnar
// binary blob (relation.Table.MarshalBinary), so shipping a table costs a
// few allocations rather than several per cell.
package netproto

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"time"

	"ivdss/internal/relation"

	"ivdss/internal/wall"
)

// RequestKind selects the operation.
type RequestKind int

const (
	// KindPing checks liveness.
	KindPing RequestKind = iota + 1
	// KindTables lists the table names a remote site serves.
	KindTables
	// KindScan fetches a whole table from a remote site.
	KindScan
	// KindExec runs a SQL query: on a remote site against its own base
	// tables, or on the DSS through information-value-driven planning.
	KindExec
	// KindInsert appends rows to a base table on a remote site (the
	// stand-in for OLTP write traffic at the branches).
	KindInsert
	// KindStatus reports DSS catalog state: placements, replicas, and
	// staleness.
	KindStatus
	// KindMetrics dumps the DSS server's instrumentation as a flat
	// name → value map.
	KindMetrics
	// KindRegister pre-registers a query at the DSS so its plans are
	// pre-calculated for routing (Section 3.1 of the paper).
	KindRegister
	// KindBatch submits a workload of queries together; the DSS orders it
	// with the multi-query optimizer (Section 3.2) before executing.
	KindBatch
	// KindSnapshot fetches a full, versioned copy of a base table — the
	// sync agent's first pull for a newly registered replica, and its
	// fallback when a delta cursor has been invalidated.
	KindSnapshot
	// KindDelta fetches the rows appended to a base table since the
	// caller's replication cursor (Request.Cursor), so steady-state sync
	// cycles ship only the change set instead of the whole table.
	KindDelta
	// KindGossip exchanges anti-entropy digests between DSS front-end
	// shards: the caller's digest rides Request.Gossip, the callee merges
	// it and answers with its own on Response.Gossip.
	KindGossip
)

// GossipDigest is the wire form of one shard's anti-entropy state summary
// (internal/cluster.Digest): queue depth, breaker state, and replica
// freshness, versioned per node so merges are order-free.
type GossipDigest struct {
	Node    int
	Version uint64
	// Clock is the sender's experiment time (minutes) when the digest was
	// cut.
	Clock float64
	// QueueDepth is the shard's admission queue length; Slots its
	// execution parallelism.
	QueueDepth int
	Slots      int
	// TotalIV is the shard's cumulative delivered information value.
	TotalIV float64
	// OpenBreakers flags remote sites the shard currently sees down.
	OpenBreakers map[int]bool
	// Freshness maps replicated table names to last-sync stamps
	// (experiment minutes) — the coverage set work-stealing checks.
	Freshness map[string]float64
}

// SiteStatus describes one remote site's health as the DSS sees it, for
// KindStatus responses.
type SiteStatus struct {
	Site int
	Addr string
	// Breaker is the circuit-breaker state name: "closed", "open", or
	// "half-open".
	Breaker string
	// ConsecutiveFailures counts transport failures since the last success
	// (meaningful while closed).
	ConsecutiveFailures int
}

// Request is the client-to-server message.
type Request struct {
	Kind  RequestKind
	Table string         // KindScan, KindInsert
	SQL   string         // KindExec
	Rows  []relation.Row // KindInsert
	// BusinessValue applies to KindExec on the DSS; zero means 1.
	BusinessValue float64
	// Batch carries the workload for KindBatch.
	Batch []BatchQuery
	// Cursor is the replication cursor for KindDelta: the table version the
	// caller's replica already reflects. Base tables are append-only, so
	// the version is the count of rows ever inserted and the delta is the
	// suffix beyond it.
	Cursor uint64
	// Filter, for KindSnapshot and KindDelta, asks the site to drop rows
	// failing this predicate (a SQL boolean expression over the base
	// table's bare column names) before they cross the wire. Views with a
	// selective WHERE use it so only relevant deltas are shipped. Empty
	// means ship every row. Versions and cursors still count base rows, so
	// filtered and unfiltered pulls share one cursor space.
	Filter string
	// Columns, for KindSnapshot and KindDelta, restricts shipped rows to
	// these base columns (in this order). Nil means ship every column.
	// Like Filter, a pure byte optimization: the view's delta program
	// accepts either projection.
	Columns []string
	// TimeoutMillis is the caller's remaining deadline budget, carried on
	// the wire so the server can bound its own work (and its downstream
	// calls) by what the client will still wait for. Zero means no
	// deadline. Relative milliseconds rather than an absolute instant, so
	// clock skew between peers cannot corrupt the budget.
	TimeoutMillis int64
	// Tenant names the budget account for KindExec/KindBatch under
	// per-tenant weighted fair shedding; empty is the default tenant.
	Tenant string
	// Forwarded marks a KindExec/KindBatch a peer shard handed over via
	// work-stealing: the receiver must serve it locally, never re-steal
	// it, so a hand-off cannot loop.
	Forwarded bool
	// Gossip carries the caller's digest for KindGossip.
	Gossip *GossipDigest
}

// BudgetContext derives a context bounded by the request's wire deadline,
// if any. The server's request handlers run under it so a client that has
// stopped waiting also stops consuming server resources.
func (r *Request) BudgetContext(parent context.Context) (context.Context, context.CancelFunc) {
	if r.TimeoutMillis > 0 {
		return context.WithTimeout(parent, time.Duration(r.TimeoutMillis)*time.Millisecond)
	}
	return context.WithCancel(parent)
}

// BatchQuery is one member of a KindBatch workload.
type BatchQuery struct {
	SQL           string
	BusinessValue float64 // zero means 1
}

// ReportMeta carries the information-value accounting of a DSS report.
type ReportMeta struct {
	PlanSignature string
	CLMinutes     float64
	SLMinutes     float64
	Value         float64
	// Degraded marks a report produced under the failure-degradation
	// policy: at least one table was answered from a local replica because
	// its base site was unreachable, so SL reflects the replica's true
	// staleness rather than the planner's preferred choice.
	Degraded bool
}

// ReplicaStatus describes one replica in a KindStatus response.
type ReplicaStatus struct {
	Table            string
	Site             int
	LastSyncMinutes  float64 // experiment-time of the last completed sync
	StalenessMinutes float64
	// LastSyncAgeMinutes is now minus the last completed sync — how old the
	// replica's contents are, the quantity a QoS window bounds.
	LastSyncAgeMinutes float64
	// NextSyncMinutes is the experiment-time of the next scheduled sync;
	// negative when none is scheduled.
	NextSyncMinutes float64
	// PeriodMinutes is the sync period currently in force — under adaptive
	// cadence it drifts from the configured one as the controller
	// re-divides the budget.
	PeriodMinutes float64
	// Cursor is the replication cursor: rows of the base table the replica
	// reflects.
	Cursor uint64
}

// ViewStatus describes one materialized view in a KindStatus response.
type ViewStatus struct {
	View    string // view ID
	QueryID string // the query whose answer the view materializes
	Table   string // base table the view is maintained over
	Site    int    // site holding that base table
	// LastSyncMinutes is the experiment-time of the last completed refresh;
	// negative when the view has never materialized.
	LastSyncMinutes  float64
	StalenessMinutes float64
	// NextSyncMinutes is the experiment-time of the next scheduled refresh;
	// negative when none is scheduled.
	NextSyncMinutes float64
	// PeriodMinutes is the refresh period currently in force.
	PeriodMinutes float64
	// Cursor counts the base-table rows the view's state reflects.
	Cursor uint64
	// Rows is the current size of the materialized answer.
	Rows int
}

// BatchItem is one KindBatch member's outcome, aligned with the request's
// Batch slice.
type BatchItem struct {
	Err      string
	Degraded bool // see Response.Degraded
	Result   *relation.Table
	Meta     *ReportMeta
}

// Response is the server-to-client message.
type Response struct {
	Err string // empty on success
	// Degraded marks an error produced by the DSS degraded-mode policy: a
	// remote site is unavailable and no local replica exists to answer
	// from. Clients distinguish it from plain query errors via RemoteError.
	Degraded bool
	// Expired marks an error produced by the DSS admission controller: the
	// query was shed (or cancelled mid-flight) because its information
	// value expired before a report could be produced.
	Expired bool
	// MQOFallback marks a degraded scheduling decision: multi-query
	// workload formation or GA ordering failed, so the queries ran in plain
	// submission order instead. The reports themselves are still correct.
	MQOFallback bool
	Tables      []string
	Result      *relation.Table
	Meta        *ReportMeta
	Replicas    []ReplicaStatus
	Views       []ViewStatus
	Sites       []SiteStatus
	Metrics     map[string]float64
	Batch       []BatchItem
	// Version is the table version accompanying KindSnapshot and KindDelta
	// responses: the count of rows ever inserted into the base table.
	Version uint64
	// DeltaRows carries the appended rows for KindDelta.
	DeltaRows []relation.Row
	// Resync is set on a KindDelta response whose cursor the server cannot
	// serve (it is ahead of the table, e.g. after a site restart); the
	// caller must fall back to a full snapshot.
	Resync bool
	// Gossip carries the callee's digest answering KindGossip.
	Gossip *GossipDigest
}

// RemoteError is the typed client-side form of a server-reported error.
type RemoteError struct {
	Msg string
	// Degraded is set when the DSS refused the query because a remote site
	// is down and no replica could stand in (degraded mode), as opposed to
	// the query itself being invalid.
	Degraded bool
	// Expired is set when the DSS shed or cancelled the query because its
	// information value expired (core.ValueExpiredError on the server).
	Expired bool
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	switch {
	case e.Expired:
		return "netproto: remote error (value expired): " + e.Msg
	case e.Degraded:
		return "netproto: remote error (degraded): " + e.Msg
	default:
		return "netproto: remote error: " + e.Msg
	}
}

// ErrOrNil converts the wire error back to a Go error.
func (r *Response) ErrOrNil() error {
	if r.Err == "" {
		return nil
	}
	return &RemoteError{Msg: r.Err, Degraded: r.Degraded, Expired: r.Expired}
}

// Conn wraps a network connection with a gob encoder and decoder: gob
// frames each message, and tables inside it use their own columnar
// encoding. A table whose rows disagree with its schema fails to encode.
type Conn struct {
	raw net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	// timeout bounds each round trip; zero means no deadline.
	timeout time.Duration
}

// NewConn wraps an established connection.
func NewConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, enc: gob.NewEncoder(raw), dec: gob.NewDecoder(raw)}
}

// SetTimeout bounds every subsequent round trip on this connection: the
// deadline is re-armed per RoundTrip, so a hung peer surfaces as a timeout
// error instead of stalling the caller forever. Zero disables deadlines.
func (c *Conn) SetTimeout(d time.Duration) { c.timeout = d }

// Dial connects to a server.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	return DialContext(context.Background(), addr, timeout)
}

// DialContext connects to a server, bounded by both the timeout and the
// context: whichever expires first aborts the dial.
func DialContext(ctx context.Context, addr string, timeout time.Duration) (*Conn, error) {
	d := net.Dialer{Timeout: timeout}
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if cause := context.Cause(ctx); cause != nil {
			return nil, fmt.Errorf("netproto: dial %s: %w", addr, cause)
		}
		return nil, fmt.Errorf("netproto: dial %s: %w", addr, err)
	}
	return NewConn(raw), nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// WriteRequest sends a request.
func (c *Conn) WriteRequest(req *Request) error {
	if err := c.enc.Encode(req); err != nil {
		return fmt.Errorf("netproto: encode request: %w", err)
	}
	return nil
}

// ReadRequest receives a request (server side).
func (c *Conn) ReadRequest() (*Request, error) {
	var req Request
	if err := c.dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// WriteResponse sends a response (server side).
func (c *Conn) WriteResponse(resp *Response) error {
	if err := c.enc.Encode(resp); err != nil {
		return fmt.Errorf("netproto: encode response: %w", err)
	}
	return nil
}

// ReadResponse receives a response.
func (c *Conn) ReadResponse() (*Response, error) {
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("netproto: decode response: %w", err)
	}
	return &resp, nil
}

// RoundTrip sends one request and reads its response. With a timeout set,
// the whole exchange runs under one connection deadline, cleared on return
// so a pooled connection can idle without tripping it.
func (c *Conn) RoundTrip(req *Request) (*Response, error) {
	return c.RoundTripContext(context.Background(), req)
}

// RoundTripContext sends one request and reads its response under the
// tighter of the connection timeout and the context deadline. The
// context's remaining budget is stamped onto the request (TimeoutMillis)
// so the server can honour the caller's deadline too; a cancelled context
// interrupts an in-flight exchange by expiring the connection deadline.
// When the exchange fails after the context ended, the context's cause is
// returned so callers see the deadline, not a generic I/O timeout.
func (c *Conn) RoundTripContext(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	var deadline time.Time
	if c.timeout > 0 {
		deadline = wall.Now().Add(c.timeout)
	}
	if d, ok := ctx.Deadline(); ok {
		if deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
		ms := wall.Until(d).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMillis = ms
	}
	if !deadline.IsZero() {
		if err := c.raw.SetDeadline(deadline); err != nil {
			return nil, fmt.Errorf("netproto: set deadline: %w", err)
		}
		defer c.raw.SetDeadline(time.Time{})
	}
	// Explicit cancellation (not just deadline expiry) unblocks the
	// exchange by forcing the connection deadline into the past.
	stop := context.AfterFunc(ctx, func() {
		// Best-effort unblock; a conn too broken to set a deadline on is
		// already failing the exchange.
		_ = c.raw.SetDeadline(time.Unix(1, 0))
	})
	defer stop()
	resp, err := c.exchange(req)
	if err != nil {
		// The connection deadline and the context deadline are the same
		// instant, so the I/O error can beat the context's own timer by
		// microseconds. When the context is due, wait for it to fire so the
		// failure is attributed to its cause (a value expiry, a wire
		// budget) rather than surfacing as a generic network timeout.
		if ctx.Err() == nil {
			if d, ok := ctx.Deadline(); ok && !wall.Now().Before(d) {
				<-ctx.Done()
			}
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("netproto: round trip: %w", context.Cause(ctx))
		}
	}
	return resp, err
}

func (c *Conn) exchange(req *Request) (*Response, error) {
	if err := c.WriteRequest(req); err != nil {
		return nil, err
	}
	return c.ReadResponse()
}

// Call dials, round-trips one request, and closes — the convenience used
// by short-lived clients and the sync puller. The timeout bounds the dial
// and the round trip separately, so a server that accepts but never
// answers cannot hang the caller. On a server-reported error the response
// is still returned alongside the RemoteError.
func Call(addr string, req *Request, timeout time.Duration) (*Response, error) {
	return CallContext(context.Background(), addr, req, timeout)
}

// CallContext is Call bounded additionally by a context: the dial and the
// round trip each stop at the earlier of the timeout and the context
// deadline, and the remaining budget travels on the wire.
func CallContext(ctx context.Context, addr string, req *Request, timeout time.Duration) (*Response, error) {
	conn, err := DialContext(ctx, addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetTimeout(timeout)
	resp, err := conn.RoundTripContext(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := resp.ErrOrNil(); err != nil {
		return resp, err
	}
	return resp, nil
}
