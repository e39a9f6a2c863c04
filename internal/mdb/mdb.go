// Package mdb is the column-store substrate standing in for MonetDB
// (§2.3): tables are collections of BATs (internal/bat), string predicates
// run column-at-a-time with intra-operator parallelism over horizontal
// partitions (10 worker threads, matching the evaluation machine), and
// UDFs operate on whole BATs rather than single tuples — the property §4.1
// credits with making hardware offload viable.
//
// Every operator returns the work it performed (rows, comparisons,
// backtracking steps, postings) so the calibrated model in internal/perf
// can convert real executions into simulated response times.
package mdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"doppiodb/internal/bat"
	"doppiodb/internal/explain"
	"doppiodb/internal/invindex"
	"doppiodb/internal/perf"
	"doppiodb/internal/shmem"
	"doppiodb/internal/softregex"
	"doppiodb/internal/strmatch"
	"doppiodb/internal/telemetry"
)

// Kind is a column type.
type Kind int

// Column kinds.
const (
	KindInt Kind = iota
	KindString
	KindShort
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "varchar"
	case KindShort:
		return "short"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ExecMode selects the optimizer pipeline (§7.1): the default pipeline uses
// intra-operator parallelism; sequential_pipe disables it (required when
// combining with the HUDF).
type ExecMode int

// Execution modes.
const (
	Parallel ExecMode = iota
	SequentialPipe
)

// ColSpec declares a column.
type ColSpec struct {
	Name string
	Kind Kind
}

// Column is one BAT of a table.
type Column struct {
	Name string
	Kind Kind

	Ints   *bat.Ints
	Strs   *bat.Strings
	Shorts *bat.Shorts

	idxMu sync.Mutex
	index *invindex.Index // lazy CONTAINS index
}

// Count returns the column's row count.
func (c *Column) Count() int {
	switch c.Kind {
	case KindInt:
		return c.Ints.Count()
	case KindString:
		return c.Strs.Count()
	case KindShort:
		return c.Shorts.Count()
	}
	return 0
}

// Table is a named collection of equally long BATs.
type Table struct {
	Name   string
	cols   []*Column
	byName map[string]*Column
	rows   int
	// version counts mutations; plan caches key on it so a cached plan is
	// invalidated the moment the table changes shape.
	version int64
}

// Version returns the table's mutation counter.
func (t *Table) Version() int64 { return t.version }

// Columns returns the table's columns in declaration order.
func (t *Table) Columns() []*Column { return t.cols }

// Column returns a column by name.
func (t *Table) Column(name string) (*Column, error) {
	c, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("mdb: table %s has no column %q", t.Name, name)
	}
	return c, nil
}

// Rows returns the table's row count.
func (t *Table) Rows() int { return t.rows }

// AppendRow appends one row; values must match the column kinds (int32 /
// int for ints, string for strings).
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("mdb: %d values for %d columns", len(vals), len(t.cols))
	}
	for i, v := range vals {
		c := t.cols[i]
		switch c.Kind {
		case KindInt:
			switch x := v.(type) {
			case int32:
				if err := c.Ints.Append(x); err != nil {
					return err
				}
			case int:
				if err := c.Ints.Append(int32(x)); err != nil {
					return err
				}
			default:
				return fmt.Errorf("mdb: column %s wants int, got %T", c.Name, v)
			}
		case KindString:
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("mdb: column %s wants string, got %T", c.Name, v)
			}
			if err := c.Strs.Append(s); err != nil {
				return err
			}
		case KindShort:
			x, ok := v.(uint16)
			if !ok {
				return fmt.Errorf("mdb: column %s wants uint16, got %T", c.Name, v)
			}
			if err := c.Shorts.Append(x); err != nil {
				return err
			}
		}
	}
	t.rows++
	t.version++
	return nil
}

// UDFResult is what a BAT-level UDF returns: the result BAT plus the
// accounting needed by the experiments.
type UDFResult struct {
	Result *bat.Shorts
	// Matches is the number of non-zero rows of Result; the count(*) leaf
	// reads it rather than scanning Result again.
	Matches int
	Work    perf.Work
	// HWSeconds is simulated hardware time, if the UDF offloaded.
	HWSeconds float64
	// Breakdown maps response-time phases to simulated seconds.
	Breakdown map[string]float64
	// Trace is the UDF-internal span tree (config-gen → job submit → QPI
	// transfer → PU match → post-process), when the UDF produced one.
	Trace *telemetry.Span
	// Degraded reports that the hardware path failed and the UDF fell
	// back to the software operator (correct result, degraded latency).
	Degraded bool
	// Decision is the placement decision record with actuals filled in
	// (EXPLAIN's view), when the UDF produced one.
	Decision *explain.Record
}

// UDF is a BAT-level user-defined function over a string column. The
// context carries the query's cancellation: a UDF that offloads must abort
// its not-yet-granted hardware jobs when ctx is canceled.
type UDF func(ctx context.Context, col *bat.Strings, arg string) (*UDFResult, error)

// DB is the database instance.
type DB struct {
	region *shmem.Region

	mu     sync.RWMutex
	tables map[string]*Table
	udfs   map[string]UDF

	sessions atomic.Int64

	// Mode is the optimizer pipeline; Threads the intra-operator worker
	// count.
	Mode    ExecMode
	Threads int
	// Tel receives operator-level metrics (scan rows in/out, operator
	// timings). New gives the database a registry of its own;
	// core.NewSystem replaces it with its System's. Nil detaches the metrics.
	Tel *telemetry.Registry
}

// New creates a database. The region may be nil for pure-software use; with
// a region every BAT is allocated in CPU-FPGA shared memory (§4.2.1).
func New(region *shmem.Region) *DB {
	return &DB{
		region:  region,
		tables:  make(map[string]*Table),
		udfs:    make(map[string]UDF),
		Threads: 10,
		Tel:     telemetry.NewRegistry(),
	}
}

// NextSession numbers the sessions opened on this database, from 1: the SQL
// engines' labels depend on their own database only, not on how many
// engines the process built before.
func (db *DB) NextSession() int64 { return db.sessions.Add(1) }

// Region returns the shared region (nil when software-only).
func (db *DB) Region() *shmem.Region { return db.region }

// CreateTable creates a table.
func (db *DB) CreateTable(name string, specs ...ColSpec) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("mdb: table %q already exists", name)
	}
	if len(specs) == 0 {
		return nil, errors.New("mdb: table needs at least one column")
	}
	t := &Table{Name: name, byName: make(map[string]*Column)}
	for _, sp := range specs {
		if _, dup := t.byName[sp.Name]; dup {
			return nil, fmt.Errorf("mdb: duplicate column %q", sp.Name)
		}
		c := &Column{Name: sp.Name, Kind: sp.Kind}
		var err error
		switch sp.Kind {
		case KindInt:
			c.Ints, err = bat.NewInts(db.region, 1024)
		case KindString:
			c.Strs, err = bat.NewStrings(db.region, 1024, 64*1024)
		case KindShort:
			c.Shorts, err = bat.NewShorts(db.region, 1024)
		default:
			err = fmt.Errorf("mdb: unknown kind %v", sp.Kind)
		}
		if err != nil {
			return nil, err
		}
		t.cols = append(t.cols, c)
		t.byName[sp.Name] = c
	}
	db.tables[name] = t
	return t, nil
}

// Table returns a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("mdb: no table %q", name)
	}
	return t, nil
}

// RegisterUDF installs a BAT-level UDF under the given (lower-case) name.
func (db *DB) RegisterUDF(name string, f UDF) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.udfs[name] = f
}

// UDF looks up a registered UDF.
func (db *DB) UDF(name string) (UDF, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, ok := db.udfs[name]
	return f, ok
}

// workers returns the scan parallelism under the current mode.
func (db *DB) workers() int {
	if db.Mode == SequentialPipe || db.Threads < 1 {
		return 1
	}
	return db.Threads
}

// Selection is the result of a predicate scan: the qualifying OIDs plus the
// work performed.
type Selection struct {
	OIDs []uint32
	Work perf.Work
}

// Count returns the number of selected rows.
func (s *Selection) Count() int { return len(s.OIDs) }

// scanStrings partitions the column horizontally and applies match to every
// row; match returns (selected, extra work for the row).
func (db *DB) scanStrings(col *Column, match func(row []byte) (bool, perf.Work)) (*Selection, error) {
	if col.Kind != KindString {
		return nil, fmt.Errorf("mdb: string scan over %v column %q", col.Kind, col.Name)
	}
	start := time.Now()
	n := col.Strs.Count()
	w := db.workers()
	if n < 4*w {
		w = 1
	}
	parts := make([]*Selection, w)
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for p := 0; p < w; p++ {
		lo, hi := p*chunk, (p+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			parts[p] = &Selection{}
			continue
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			sel := &Selection{}
			for i := lo; i < hi; i++ {
				row := col.Strs.Get(i)
				ok, work := match(row)
				sel.Work.Rows++
				sel.Work.Bytes += uint64(len(row))
				sel.Work.Add(work)
				if ok {
					sel.OIDs = append(sel.OIDs, uint32(i))
				}
			}
			parts[p] = sel
		}(p, lo, hi)
	}
	wg.Wait()
	out := &Selection{}
	for _, part := range parts {
		out.OIDs = append(out.OIDs, part.OIDs...)
		out.Work.Add(part.Work)
	}
	db.Tel.Counter("mdb.scan.rows").Add(int64(n))
	db.Tel.Counter("mdb.scan.selected").Add(int64(len(out.OIDs)))
	db.Tel.Counter("mdb.scan.bytes").Add(int64(out.Work.Bytes))
	db.Tel.Counter("mdb.scan.wall_ns").Add(time.Since(start).Nanoseconds())
	return out, nil
}

// SelectLike scans the column with a LIKE (or ILIKE) pattern.
func (db *DB) SelectLike(t *Table, colName, pattern string, foldCase bool) (*Selection, error) {
	col, err := t.Column(colName)
	if err != nil {
		return nil, err
	}
	p, err := strmatch.CompileLike(pattern, foldCase)
	if err != nil {
		return nil, err
	}
	db.Tel.Counter("mdb.like.queries").Inc()
	// Byte comparisons are approximated per row from the pattern
	// structure: Boyer-Moore segments examine a fraction of the row.
	return db.scanStrings(col, func(row []byte) (bool, perf.Work) {
		ok := p.Match(row)
		cmp := uint64(len(row)/3 + 8*p.Segments())
		return ok, perf.Work{Comparisons: cmp}
	})
}

// SelectRegexp scans the column with the PCRE-style backtracking matcher
// (MonetDB's REGEXP_LIKE path).
func (db *DB) SelectRegexp(t *Table, colName, pattern string, foldCase bool) (*Selection, error) {
	col, err := t.Column(colName)
	if err != nil {
		return nil, err
	}
	bt, err := softregex.NewBacktracker(pattern, foldCase)
	if err != nil {
		return nil, err
	}
	db.Tel.Counter("mdb.regexp.queries").Inc()
	return db.scanStrings(col, func(row []byte) (bool, perf.Work) {
		pos, steps := bt.Match(row)
		return pos != 0, perf.Work{Steps: steps, RegexRows: 1}
	})
}

// EnsureContainsIndex builds the inverted index for the column if missing,
// returning whether a build happened and the rows indexed (for the index
// cost accounting of §7.2).
func (db *DB) EnsureContainsIndex(t *Table, colName string) (built bool, rows int, err error) {
	col, err := t.Column(colName)
	if err != nil {
		return false, 0, err
	}
	if col.Kind != KindString {
		return false, 0, fmt.Errorf("mdb: CONTAINS index on %v column", col.Kind)
	}
	col.idxMu.Lock()
	defer col.idxMu.Unlock()
	if col.index != nil {
		return false, 0, nil
	}
	n := col.Strs.Count()
	all := make([]string, n)
	for i := 0; i < n; i++ {
		all[i] = col.Strs.GetString(i)
	}
	col.index = invindex.Build(all, true)
	col.index.AttachTelemetry(db.Tel)
	return true, n, nil
}

// SelectContains answers a conjunctive CONTAINS query via the inverted
// index (building it on first use).
func (db *DB) SelectContains(t *Table, colName, query string) (*Selection, error) {
	if _, _, err := db.EnsureContainsIndex(t, colName); err != nil {
		return nil, err
	}
	col, _ := t.Column(colName)
	db.Tel.Counter("mdb.contains.queries").Inc()
	oids, lookups, err := col.index.Search(query)
	if err != nil {
		return nil, err
	}
	st := col.index.Stats()
	// Postings touched ≈ lookups' average list length; use the exact
	// intersection inputs when available (approximate by total/words).
	var postings uint64
	if st.Words > 0 {
		postings = uint64(lookups) * uint64(st.Postings/st.Words)
	}
	return &Selection{OIDs: oids, Work: perf.Work{Rows: len(oids), Postings: postings}}, nil
}

// CallUDF invokes a registered UDF over a string column. A nil ctx reads
// as context.Background().
func (db *DB) CallUDF(ctx context.Context, name string, t *Table, colName, arg string) (*UDFResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	f, ok := db.UDF(name)
	if !ok {
		return nil, fmt.Errorf("mdb: unknown UDF %q", name)
	}
	col, err := t.Column(colName)
	if err != nil {
		return nil, err
	}
	if col.Kind != KindString {
		return nil, fmt.Errorf("mdb: UDF %s over %v column", name, col.Kind)
	}
	db.Tel.Counter("mdb.udf.calls").Inc()
	return f(ctx, col.Strs, arg)
}

// LoadAddressTable bulk-creates the paper's two-column address table.
func (db *DB) LoadAddressTable(name string, rows []string) (*Table, error) {
	t, err := db.CreateTable(name,
		ColSpec{Name: "id", Kind: KindInt},
		ColSpec{Name: "address_string", Kind: KindString},
	)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if err := t.AppendRow(int32(i), r); err != nil {
			return nil, err
		}
	}
	return t, nil
}
