package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/tpch"
)

// clients is the number of client connections to the DSS: one per core of
// the 2-core machine the benchmark is sized for.
const clients = 2

// callTimeout bounds one read or write; an operation that takes longer has
// failed.
const callTimeout = 10 * time.Second

// op is one scheduled read: when it is due, relative to the window start,
// and which template it runs.
type op struct {
	due  time.Duration
	tmpl string
}

// readSchedule draws the open-loop read stream: evenly spaced arrivals at
// the workload's rate. Templates come in rounds that each hold every
// template once, in an order drawn from the seed, so every seed offers the
// same mix and seeds differ only in the order of arrivals; a uniform draw
// per arrival would let the mix, and with it the latency percentiles,
// vary from seed to seed.
func readSchedule(w *workload, seed int64, seconds float64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, int(w.RateQPS*seconds))
	var round []int
	for i := range ops {
		if len(round) == 0 {
			round = rng.Perm(len(templates))
		}
		ops[i] = op{
			due:  time.Duration(float64(i) / w.RateQPS * float64(time.Second)),
			tmpl: templates[round[0]],
		}
		round = round[1:]
	}
	return ops
}

// readRec is what one read produced.
type readRec struct {
	tmpl  string
	due   time.Duration // when it was due, from the window start
	lag   time.Duration // how late the generator issued it
	lat   time.Duration // completion minus due time
	rtt   time.Duration // completion minus send time
	err   error         // error, shed, expiry or wrong answer
	wrong bool
	meta  *netproto.ReportMeta
	res   *relation.Table // kept until checkReads has checked it
}

// checkFunc verifies one answer; nil means correct.
type checkFunc func(tmpl string, t *relation.Table) error

// drive runs the open-loop read stream from start. A dispatcher issues each
// read at its due time into a FIFO that the client connections drain, so a
// read due while every connection is busy waits in the generator and is
// timed from its due time. Answers are kept, not checked: checkReads
// checks them after the window, so the check costs neither latency nor
// the window's CPU and allocation.
func drive(f *deployment, ops []op, start time.Time) []readRec {
	recs := make([]readRec, len(ops))
	queue := make(chan int, len(ops)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(ops[i].due)
				rec := &recs[i]
				rec.tmpl = ops[i].tmpl
				ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
				sent := time.Now()
				resp, err := f.exec(ctx, templateSQL[rec.tmpl])
				done := time.Now()
				cancel()
				rec.lat, rec.rtt, rec.err = done.Sub(due), done.Sub(sent), err
				if err == nil {
					rec.meta, rec.res = resp.Meta, resp.Result
				}
			}
		}()
	}
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		recs[i].due, recs[i].lag = ops[i].due, time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs
}

// checkReads checks every answered read and drops the kept answer; a
// wrong answer counts as a failed read.
func checkReads(recs []readRec, check checkFunc) {
	for i := range recs {
		r := &recs[i]
		if r.err == nil {
			if err := check(r.tmpl, r.res); err != nil {
				r.wrong, r.err = true, fmt.Errorf("wrong answer to %s: %w", r.tmpl, err)
			}
		}
		r.res = nil
	}
}

// writeBatch is one seeded insert at the write branch: new orders and
// their lineitems.
type writeBatch struct {
	due   time.Duration
	order []relation.Row
	lines []relation.Row
}

// writeSchedule draws the write stream from the seed: each batch clones a
// random existing order under a fresh order key, with one to four
// lineitems each cloned from random existing lines.
func writeSchedule(w *workload, seed int64, seconds float64, base map[string]*relation.Table) []writeBatch {
	if w.WriteBatchesPerSec <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	orders, lines := base[tpch.Orders], base[tpch.LineItem]
	next := int64(0)
	for _, r := range orders.Rows {
		next = max(next, r[0].I)
	}
	batches := make([]writeBatch, int(w.WriteBatchesPerSec*seconds))
	for i := range batches {
		b := &batches[i]
		b.due = time.Duration((float64(i) + .5) / w.WriteBatchesPerSec * float64(time.Second))
		next++
		o := orders.Rows[rng.Intn(len(orders.Rows))].Clone()
		o[0] = relation.IntVal(next)
		b.order = append(b.order, o)
		n := 1 + rng.Intn(4)
		for ln := 1; ln <= n; ln++ {
			l := lines.Rows[rng.Intn(len(lines.Rows))].Clone()
			l[0], l[3] = relation.IntVal(next), relation.IntVal(int64(ln))
			b.lines = append(b.lines, l)
		}
	}
	return batches
}

// writeRec is one insert request's outcome.
type writeRec struct {
	lat time.Duration
	err error
}

// writeLog collects insert outcomes and the rows the branch acknowledged.
type writeLog struct {
	recs   []writeRec
	orders []relation.Row
	lines  []relation.Row
}

// write sends the write stream to the branch on its own connection, open
// loop from start, and stops early when ctx ends.
func write(ctx context.Context, addr string, batches []writeBatch, start time.Time) *writeLog {
	wl := &writeLog{}
	if len(batches) == 0 {
		return wl
	}
	pool := netproto.NewPool(5*time.Second, callTimeout)
	defer pool.Close()
	for _, b := range batches {
		due := start.Add(b.due)
		select {
		case <-ctx.Done():
			return wl
		case <-time.After(time.Until(due)):
		}
		for _, ins := range []struct {
			table string
			rows  []relation.Row
			acked *[]relation.Row
		}{{tpch.Orders, b.order, &wl.orders}, {tpch.LineItem, b.lines, &wl.lines}} {
			cctx, cancel := context.WithTimeout(ctx, callTimeout)
			sent := time.Now()
			_, err := pool.CallContext(cctx, addr, &netproto.Request{Kind: netproto.KindInsert, Table: ins.table, Rows: ins.rows})
			cancel()
			wl.recs = append(wl.recs, writeRec{lat: time.Since(sent), err: err})
			if err == nil {
				*ins.acked = append(*ins.acked, ins.rows...)
			}
		}
	}
	return wl
}
