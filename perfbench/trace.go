package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the benchmark recorded around a call into a
// layer. Spans of one client request share its ID; relay round trips and
// layer replays outside any request carry ID 0.
type span struct {
	ID        int64         `json:"id"`
	Name      string        `json:"name"`
	Start     time.Duration `json:"start_ns"`
	End       time.Duration `json:"end_ns"`
	BytesUp   int64         `json:"bytes_up,omitempty"`
	BytesDown int64         `json:"bytes_down,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. current names the
// request the single traced client has in flight, so relays can tag the
// round trips it causes.
type tracer struct {
	epoch   time.Time
	current atomic.Int64
	// active gates relay spans to the traced pass.
	active atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other and stick out of the parent; only their
// union inside the parent is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}
