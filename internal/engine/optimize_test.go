package engine

// Tests for the plan optimizer (optimize.go): golden plan shapes for
// predicate pushdown, and exact-output parity between the engine and the
// unoptimized reference engine (the byte-identity contract) over fixed and
// randomized queries, error cases included.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// explain parses sql and returns the before/after plan strings over testDB.
func explain(t *testing.T, sql string) (string, string) {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return New(testDB()).Explain(sel)
}

func TestExplainPushdownGolden(t *testing.T) {
	before, after := explain(t,
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 75 AND d.budget >= 500")
	wantBefore := strings.Join([]string{
		"Project (1 items, 0 order keys)",
		"  Filter e.salary > 75 AND d.budget >= 500",
		"    INNER Join ON e.dept = d.name",
		"      Scan emp AS e",
		"      Scan dept AS d",
		"",
	}, "\n")
	wantAfter := strings.Join([]string{
		"Project (1 items, 0 order keys)",
		"  INNER Join ON e.dept = d.name",
		"    Filter e.salary > 75",
		"      Scan emp AS e",
		"    Filter d.budget >= 500",
		"      Scan dept AS d",
		"",
	}, "\n")
	if before != wantBefore {
		t.Errorf("before plan:\n%s\nwant:\n%s", before, wantBefore)
	}
	if after != wantAfter {
		t.Errorf("after plan:\n%s\nwant:\n%s", after, wantAfter)
	}
}

func TestExplainImplicitJoinPushdownGolden(t *testing.T) {
	before, after := explain(t,
		"SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND e.salary > 75")
	wantBefore := strings.Join([]string{
		"Project (1 items, 0 order keys)",
		"  ImplicitJoin (2 inputs) WHERE e.dept = d.name AND e.salary > 75",
		"    Scan emp AS e",
		"    Scan dept AS d",
		"",
	}, "\n")
	wantAfter := strings.Join([]string{
		"Project (1 items, 0 order keys)",
		"  ImplicitJoin (2 inputs) WHERE e.dept = d.name",
		"    Filter e.salary > 75",
		"      Scan emp AS e",
		"    Scan dept AS d",
		"",
	}, "\n")
	if before != wantBefore {
		t.Errorf("before plan:\n%s\nwant:\n%s", before, wantBefore)
	}
	if after != wantAfter {
		t.Errorf("after plan:\n%s\nwant:\n%s", after, wantAfter)
	}
}

func TestOptimizerSkipsUnresolvableRefs(t *testing.T) {
	// "e.nosuch" matches emp's qualifier but no emp column: pushing it below
	// the join could raise "unknown column" on a query whose unoptimized
	// residual never evaluates it, so the optimizer must leave it in place.
	// A pushable conjunct BEFORE it still moves; one AFTER it must stay too
	// (pushing past a fallible conjunct could drop the rows that would have
	// triggered its error).
	const sql = "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE d.budget > 100 AND e.nosuch = 1 AND e.salary > 75"
	_, after := explain(t, sql)
	if !strings.Contains(after, "Filter e.nosuch = 1 AND e.salary > 75") {
		t.Errorf("conjuncts at or after the fallible one were not kept above the join:\n%s", after)
	}
	if !strings.Contains(after, "Filter d.budget > 100") {
		t.Errorf("resolvable conjunct before the fallible one was not pushed:\n%s", after)
	}
	on, off, onErr, offErr := queryBoth(sql)
	assertSame(t, sql, on, off, onErr, offErr)
}

// queryBoth runs sql over testDB on the engine and on the unoptimized
// reference engine and returns both results.
func queryBoth(sql string) (on, off *Relation, onErr, offErr error) {
	db := testDB()
	on, onErr = New(db).QuerySQL(sql)
	off, offErr = NewReference(db).QuerySQL(sql)
	return
}

// assertSame fails unless two runs of sql agreed exactly: same error
// presence and message, same columns, same rows in the same order. Callers
// pass the run under test first and its reference second.
func assertSame(t *testing.T, sql string, got, want *Relation, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: error divergence: got %v, reference %v", sql, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: error message divergence:\n  got:       %v\n  reference: %v", sql, gotErr, wantErr)
		}
		return
	}
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%q: column count %d != %d", sql, len(got.Cols), len(want.Cols))
	}
	for i := range got.Cols {
		if !strings.EqualFold(got.Cols[i].Name, want.Cols[i].Name) {
			t.Fatalf("%q: column %d name %q != %q", sql, i, got.Cols[i].Name, want.Cols[i].Name)
		}
	}
	gotRows, wantRows := rowStrings(got), rowStrings(want)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%q: row count %d != %d", sql, len(gotRows), len(wantRows))
	}
	for i := range gotRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("%q: row %d: %q != %q", sql, i, gotRows[i], wantRows[i])
		}
	}
}

func TestPushdownParity(t *testing.T) {
	queries := []string{
		// All four join flavors, with and without pushable predicates, and
		// with either table on the left.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 75",
		"SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name WHERE e.salary > 75",
		"SELECT e.name, d.budget FROM emp e RIGHT JOIN dept d ON e.dept = d.name",
		"SELECT e.name, d.budget FROM emp e RIGHT JOIN dept d ON e.dept = d.name WHERE d.budget >= 500",
		"SELECT e.name, d.budget FROM emp e FULL JOIN dept d ON e.dept = d.name",
		"SELECT d.budget, e.name FROM dept d JOIN emp e ON d.name = e.dept",
		"SELECT d.budget, e.name FROM dept d JOIN emp e ON d.name = e.dept WHERE e.salary > 75 AND d.budget > 100",
		"SELECT e.name FROM emp e CROSS JOIN dept d WHERE e.salary > 90",
		// Non-equality ON: the nested-loop join.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.salary > d.budget",
		// Chained joins, pushdown through both levels.
		"SELECT e.name, d.budget, f.id FROM emp e JOIN dept d ON e.dept = d.name JOIN emp f ON d.name = f.dept",
		// Derived-table inputs, with pushdown through the projection.
		"SELECT x.n, d.budget FROM (SELECT name AS n, dept AS dp, salary AS s FROM emp) x JOIN dept d ON x.dp = d.name WHERE x.s > 75",
		"SELECT x.n FROM (SELECT name AS n, salary AS s FROM emp ORDER BY s DESC) x WHERE x.s > 75",
		// Implicit joins, with a single-input conjunct pushed below.
		"SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.name AND e.salary > 75",
		"SELECT e.name, f.name FROM emp e, dept d, emp f WHERE e.dept = d.name AND f.id = e.id",
		// ORDER BY and aggregation above optimized joins.
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name ORDER BY d.budget DESC, e.name",
		"SELECT d.name, COUNT(*) AS c FROM dept d JOIN emp e ON d.name = e.dept GROUP BY d.name ORDER BY d.name",
	}
	for _, sql := range queries {
		on, off, onErr, offErr := queryBoth(sql)
		assertSame(t, sql, on, off, onErr, offErr)
	}
}

func TestPushdownErrorParity(t *testing.T) {
	queries := []string{
		// Unknown and ambiguous columns in every clause position; the
		// optimizer must not change which error (if any) surfaces.
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.nosuch = 1",
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE d.nosuch = 1 AND e.salary > 75",
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE name = 'eng'",
		"SELECT nosuch FROM emp e JOIN dept d ON e.dept = d.name",
		"SELECT e.name FROM emp e JOIN dept d ON e.nosuch = d.name",
		"SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND e.nosuch = 1",
		"SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND name = 'x'",
		// A filter that never matches leaves zero rows; a pushed unknown-ref
		// conjunct must not error where the baseline evaluates nothing.
		"SELECT x.n FROM (SELECT name AS n, nosuch AS m FROM emp) x WHERE x.n = 'zzz'",
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 1e999",
	}
	for _, sql := range queries {
		on, off, onErr, offErr := queryBoth(sql)
		assertSame(t, sql, on, off, onErr, offErr)
	}
}

// Pushdown below a nested-loop join must match the reference too. The
// "AND 1 = 1" makes each ON clause more than a bare column equality, which
// routes the join to the nested loop.
func TestForceNestedLoopFallbackParity(t *testing.T) {
	for _, sql := range []string{
		"SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name AND 1 = 1 WHERE e.salary > 75",
		"SELECT e.name, d.budget FROM emp e FULL JOIN dept d ON e.dept = d.name AND 1 = 1",
	} {
		on, off, onErr, offErr := queryBoth(sql)
		assertSame(t, sql, on, off, onErr, offErr)
	}
}

// TestOptimizerDifferentialQuick fuzzes SELECTs over emp/dept — every join
// flavor, predicates drawn from a pool that includes non-total expressions,
// unknown and ambiguous columns — and requires the engine and the reference
// engine to agree exactly on errors, columns, rows, and row order.
func TestOptimizerDifferentialQuick(t *testing.T) {
	froms := []string{
		"emp e, dept d",
		"emp e JOIN dept d ON e.dept = d.name",
		"emp e LEFT JOIN dept d ON e.dept = d.name",
		"emp e RIGHT JOIN dept d ON e.dept = d.name",
		"emp e FULL JOIN dept d ON e.dept = d.name",
		"dept d JOIN emp e ON d.name = e.dept",
		"emp e CROSS JOIN dept d",
		"emp e, dept d, emp f",
		"(SELECT id AS i, name AS n, dept AS dp, salary AS s FROM emp) e, dept d",
	}
	preds := []string{
		"e.salary > 75",
		"d.budget >= 500",
		"e.dept = d.name",
		"e.name LIKE 'a%'",
		"e.salary IS NULL",
		"e.id IN (1, 3, 5)",
		"d.budget BETWEEN 100 AND 600",
		"NOT (e.salary < 80)",
		"e.salary + d.budget > 500", // non-total: never pushed
		"e.nosuch = 1",              // unknown column
		"name = 'eng'",              // ambiguous across emp and dept
		"e.salary > 1e999",          // bad numeric literal
		"f.id = e.id",               // resolves only in the three-input FROM
		"e.s > 75",                  // resolves only under the derived table
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		var b strings.Builder
		b.WriteString("SELECT * FROM ")
		b.WriteString(froms[r.Intn(len(froms))])
		if n := r.Intn(4); n > 0 {
			b.WriteString(" WHERE ")
			for j := 0; j < n; j++ {
				if j > 0 {
					if r.Intn(4) == 0 {
						b.WriteString(" OR ")
					} else {
						b.WriteString(" AND ")
					}
				}
				b.WriteString(preds[r.Intn(len(preds))])
			}
		}
		sql := b.String()
		on, off, onErr, offErr := queryBoth(sql)
		assertSame(t, sql, on, off, onErr, offErr)
	}
}

// benchJoinDB builds a two-table instance large enough that pushdown
// changes the join's input sizes materially: a 20k-row probe table and a
// 64-row build table.
func benchJoinDB() *DB {
	schema := catalog.NewSchema("bench")
	schema.Add(catalog.T("big", "id", catalog.TypeInt, "v", catalog.TypeInt))
	schema.Add(catalog.T("small", "id", catalog.TypeInt, "w", catalog.TypeInt))
	db := NewDB(schema)
	big := &Relation{Cols: []Col{{Name: "id", Type: catalog.TypeInt}, {Name: "v", Type: catalog.TypeInt}}}
	for i := 0; i < 20_000; i++ {
		big.Rows = append(big.Rows, []Value{IntVal(int64(i % 64)), IntVal(int64(i % 100))})
	}
	small := &Relation{Cols: []Col{{Name: "id", Type: catalog.TypeInt}, {Name: "w", Type: catalog.TypeInt}}}
	for i := 0; i < 64; i++ {
		small.Rows = append(small.Rows, []Value{IntVal(int64(i)), IntVal(int64(i * 10))})
	}
	db.Put("big", big)
	db.Put("small", small)
	return db
}

// A filtered join over inputs far larger than testDB's: the pushed-down
// plan must match the reference exactly and do less work.
func TestBenchJoinDBParity(t *testing.T) {
	db := benchJoinDB()
	eOn := New(db)
	eOn.MaxRows = 10_000_000
	eOff := NewReference(db)
	eOff.MaxRows = 10_000_000
	sql := "SELECT b.v, s.w FROM big b JOIN small s ON b.id = s.id WHERE b.v > 50 AND s.w < 300"
	on, onErr := eOn.QuerySQL(sql)
	off, offErr := eOff.QuerySQL(sql)
	assertSame(t, sql, on, off, onErr, offErr)
	if len(on.Rows) == 0 {
		t.Fatal("query returns no rows")
	}
	if eOn.Ops() >= eOff.Ops() {
		t.Errorf("pushdown did not reduce row ops: %d >= %d", eOn.Ops(), eOff.Ops())
	}
}
