package sqlmini

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ivdss/internal/relation"
)

// Engine selects the execution strategy. The zero value is the bytecode
// VM, so every existing caller gets compiled execution without changes;
// the tree-walking interpreter stays available as the reference oracle.
type Engine int

const (
	// EngineVM compiles the statement to a typed plan and flat bytecode,
	// then executes it over columnar batches. The default.
	EngineVM Engine = iota
	// EngineTreeWalk is the original row-at-a-time AST interpreter.
	EngineTreeWalk
)

// String names the engine for flags and logs.
func (e Engine) String() string {
	switch e {
	case EngineVM:
		return "vm"
	case EngineTreeWalk:
		return "tree"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine maps a flag value ("vm" or "tree") to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "", "vm":
		return EngineVM, nil
	case "tree", "treewalk", "tree-walk":
		return EngineTreeWalk, nil
	default:
		return 0, fmt.Errorf("sqlmini: unknown engine %q (want vm or tree)", s)
	}
}

// Options tunes one execution. The zero value runs the VM without a
// cache, matching ExecuteContext.
type Options struct {
	Engine Engine
	// Cache, when set, lets VM executions reuse columnar table images and
	// hash-join builds across a micro-batch workload. Safe to share
	// between goroutines.
	Cache *ExecCache
}

// ExecuteWith evaluates a parsed statement with explicit engine options.
func ExecuteWith(ctx context.Context, stmt *SelectStmt, cat Catalog, opts Options) (*relation.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if opts.Engine == EngineTreeWalk {
		return executeTree(ctx, stmt, cat)
	}
	// Memoize table fetches for the duration of this statement: Prepare
	// and bind would otherwise hit the catalog twice per table, which for
	// federated catalogs pays the (simulated) network cost twice and could
	// observe two different snapshots of the same table.
	cat = &onceCatalog{cat: cat}
	p, err := Prepare(stmt, cat)
	if err != nil {
		return nil, err
	}
	res, err := p.ExecuteContext(ctx, cat, opts.Cache)
	if err != nil && errors.Is(err, errVMFallback) {
		// The VM declined (e.g. a base table whose rows violate their
		// declared schema, which columnar conversion rejects but the
		// row-at-a-time oracle tolerates). Preserve reference semantics.
		return executeTree(ctx, stmt, cat)
	}
	return res, err
}

// RunWith is ExecuteWith over query text.
func RunWith(ctx context.Context, query string, cat Catalog, opts Options) (*relation.Table, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecuteWith(ctx, stmt, cat, opts)
}

// onceCatalog memoizes successful lookups so each table is fetched from
// the underlying catalog exactly once per statement execution.
type onceCatalog struct {
	cat Catalog
	m   map[string]*relation.Table
}

func (c *onceCatalog) Table(name string) (*relation.Table, error) {
	if t, ok := c.m[name]; ok {
		return t, nil
	}
	t, err := c.cat.Table(name)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = make(map[string]*relation.Table)
	}
	c.m[name] = t
	return t, nil
}

// execCacheCap bounds each cache map; when a map fills (pointer-keyed
// entries for tables that no longer exist just accumulate), the whole map
// is dropped and re-warms from the live working set.
const execCacheCap = 128

// ExecCache holds columnar images of row-major tables and hash-join build
// indexes, keyed by table pointer identity. Replica snapshots are swapped
// copy-on-write, so a pointer uniquely names one version of a table's
// contents; a row-count check additionally invalidates entries for
// append-mutated tables. A micro-batch workload that scans and joins the
// same snapshots repeatedly pays the columnar conversion and the join
// build once.
type ExecCache struct {
	mu     sync.Mutex
	cols   map[*relation.Table]*relation.ColTable
	builds map[buildKey]*relation.JoinIndex
}

type buildKey struct {
	t   *relation.Table
	sig string // key column positions, e.g. "3,7"
}

// NewExecCache returns an empty cache.
func NewExecCache() *ExecCache {
	return &ExecCache{}
}

// columnar returns the cached columnar image of t, converting on miss.
// Conversion runs outside the lock; concurrent misses may duplicate work
// but never block each other on it.
func (c *ExecCache) columnar(t *relation.Table) (*relation.ColTable, error) {
	c.mu.Lock()
	if ct, ok := c.cols[t]; ok && ct.N == len(t.Rows) {
		c.mu.Unlock()
		return ct, nil
	}
	c.mu.Unlock()
	ct, err := relation.Columnar(t)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.cols == nil || len(c.cols) >= execCacheCap {
		c.cols = make(map[*relation.Table]*relation.ColTable)
	}
	c.cols[t] = ct
	c.mu.Unlock()
	return ct, nil
}

// joinIndex returns the cached build index for t's columnar image ct over
// the given key positions, building on miss.
func (c *ExecCache) joinIndex(ctx context.Context, t *relation.Table, ct *relation.ColTable, keys []int) (*relation.JoinIndex, error) {
	key := buildKey{t: t, sig: keySig(keys)}
	c.mu.Lock()
	if idx, ok := c.builds[key]; ok && idx.N == ct.N {
		c.mu.Unlock()
		return idx, nil
	}
	c.mu.Unlock()
	idx, err := relation.BuildJoinIndex(ctx, ct, keys)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.builds == nil || len(c.builds) >= execCacheCap {
		c.builds = make(map[buildKey]*relation.JoinIndex)
	}
	c.builds[key] = idx
	c.mu.Unlock()
	return idx, nil
}

// Forget drops the columnar images and join builds of the given tables.
// Entries are keyed by pointer, so a table read by one statement only (a
// fetch from a remote site) would otherwise stay reachable until its map
// next fills; callers release such tables once the statement is done.
func (c *ExecCache) Forget(ts ...*relation.Table) {
	if len(ts) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range ts {
		delete(c.cols, t)
	}
	for k := range c.builds {
		for _, t := range ts {
			if k.t == t {
				delete(c.builds, k)
				break
			}
		}
	}
}

// Names returns the names of the tables the cache holds an image or a
// join build for, sorted, one entry per cached table version.
func (c *ExecCache) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := make(map[*relation.Table]bool, len(c.cols))
	for t := range c.cols {
		held[t] = true
	}
	for k := range c.builds {
		held[k.t] = true
	}
	names := make([]string, 0, len(held))
	for t := range held {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

func keySig(keys []int) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", k)
	}
	return b.String()
}
