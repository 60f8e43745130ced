package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ivdss/internal/core"
	"ivdss/internal/netproto"
	"ivdss/internal/relation"
	"ivdss/internal/server"
	"ivdss/internal/tpch"
)

// writeSite is the branch that holds lineitem and orders, the tables the
// write-mix workload inserts into.
const writeSite = 1

// siteOf places the eight TPC-H tables on two branch sites.
var siteOf = map[string]core.SiteID{
	tpch.LineItem: writeSite, tpch.Orders: writeSite, tpch.Customer: writeSite,
	tpch.Nation: writeSite, tpch.Region: writeSite,
	tpch.Part: 2, tpch.PartSupp: 2, tpch.Supplier: 2,
}

// deployment is one live, in-process deployment: two branch sites, a
// benchmark-owned relay in front of each, and the DSS front-end that talks
// to the branches only through the relays.
type deployment struct {
	remotes    map[core.SiteID]*server.RemoteServer
	remoteAddr map[core.SiteID]string
	relays     map[core.SiteID]*relay
	dss        *server.DSSServer
	dssAddr    string
	pool       *netproto.Pool
}

// generate builds the TPC-H catalog. It is deterministic in the data seed,
// so the oracle can regenerate the same data.
func generate() (map[string]*relation.Table, error) {
	return tpch.Generate(tpch.Config{Scale: dataScale, Seed: dataSeed})
}

// startFederation generates the data, brings up the branches, relays and
// DSS on loopback, registers the templates where the workload asks for it,
// and warms every template up, so the first measured read finds the
// federation in its steady state.
func startFederation(w *workload, tr *tracer) (f *deployment, err error) {
	tables, err := generate()
	if err != nil {
		return nil, err
	}
	f = &deployment{
		remotes:    map[core.SiteID]*server.RemoteServer{},
		remoteAddr: map[core.SiteID]string{},
		relays:     map[core.SiteID]*relay{},
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	for _, name := range sortedKeys(tables) {
		site := siteOf[name]
		rs, ok := f.remotes[site]
		if !ok {
			rs = server.NewRemoteServer()
			f.remotes[site] = rs
		}
		if err := rs.AddTable(tables[name]); err != nil {
			return f, err
		}
	}
	remotes := map[core.SiteID]string{}
	for site, rs := range f.remotes {
		addr, err := rs.Listen("127.0.0.1:0")
		if err != nil {
			return f, err
		}
		f.remoteAddr[site] = addr
		rl, err := newRelay(addr, tr)
		if err != nil {
			return f, err
		}
		f.relays[site] = rl
		remotes[site] = rl.addr()
	}
	replicate := map[core.TableID]time.Duration{}
	for name, ms := range w.ReplicateMS {
		replicate[core.TableID(name)] = time.Duration(ms) * time.Millisecond
	}
	f.dss, err = server.NewDSSServer(server.DSSConfig{
		Remotes:   remotes,
		Replicate: replicate,
		Rates:     rates,
		TimeScale: timeScale,
	})
	if err != nil {
		return f, err
	}
	if f.dssAddr, err = f.dss.Listen("127.0.0.1:0"); err != nil {
		return f, err
	}
	f.pool = netproto.NewPool(5*time.Second, 30*time.Second)
	f.pool.MaxIdlePerKey = clients
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range templates {
		sql := templateSQL[id]
		if w.Register {
			if _, err := f.pool.CallContext(ctx, f.dssAddr, &netproto.Request{Kind: netproto.KindRegister, SQL: sql}); err != nil {
				return f, fmt.Errorf("register %s: %w", id, err)
			}
		}
	}
	for pass := 0; pass < warmupPasses; pass++ {
		for _, id := range templates {
			if _, err := f.exec(ctx, templateSQL[id]); err != nil {
				return f, fmt.Errorf("warm-up %s: %w", id, err)
			}
		}
	}
	return f, nil
}

// warmupPasses is how often setup runs every template before measuring:
// the first pass fills the planner's cost calibration and the VM caches,
// the second lets plan choices settle on the calibrated costs.
const warmupPasses = 2

// exec sends one read to the DSS.
func (f *deployment) exec(ctx context.Context, sql string) (*netproto.Response, error) {
	return f.pool.CallContext(ctx, f.dssAddr, &netproto.Request{Kind: netproto.KindExec, SQL: sql, BusinessValue: 1})
}

// metrics reads the DSS's own instrumentation.
func (f *deployment) metrics(ctx context.Context) (map[string]float64, error) {
	resp, err := f.pool.CallContext(ctx, f.dssAddr, &netproto.Request{Kind: netproto.KindMetrics})
	if err != nil {
		return nil, err
	}
	return resp.Metrics, nil
}

// cursors reports, per replicated table, how many base rows the replica
// reflects.
func (f *deployment) cursors(ctx context.Context) (map[string]uint64, error) {
	resp, err := f.pool.CallContext(ctx, f.dssAddr, &netproto.Request{Kind: netproto.KindStatus})
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, r := range resp.Replicas {
		out[r.Table] = r.Cursor
	}
	return out, nil
}

// close tears everything down and waits for every server goroutine. It
// is idempotent.
func (f *deployment) close() {
	if f.pool != nil {
		_ = f.pool.Close() // teardown: nothing left to report to
	}
	if f.dss != nil {
		_ = f.dss.Close()
	}
	for _, rl := range f.relays {
		rl.close()
	}
	for _, rs := range f.remotes {
		_ = rs.Close()
	}
	f.pool, f.dss, f.relays, f.remotes = nil, nil, nil, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
