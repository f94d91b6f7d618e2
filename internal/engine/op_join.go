package engine

// Physical join operators and the shared row plumbing they use: hash join,
// nested-loop join with outer padding, cross product, and the implicit-join
// operator that orders comma-joined relations at execution time (the greedy
// ordering itself lives in planner.go).

import (
	"math"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/sqlast"
)

// rowArena block-allocates fixed-width result rows, replacing the per-row
// make in the join and cross-product inner loops with one allocation per
// block. Rows handed out are capacity-clipped so an append on one can never
// bleed into the next.
type rowArena struct {
	width int
	buf   []Value
}

const arenaBlockRows = 256

func newRowArena(width int) *rowArena { return &rowArena{width: width} }

func (a *rowArena) next() []Value {
	if a.width == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < a.width {
		a.buf = make([]Value, 0, a.width*arenaBlockRows)
	}
	n := len(a.buf)
	a.buf = a.buf[:n+a.width]
	return a.buf[n : n+a.width : n+a.width]
}

// concat returns l++r as an arena-backed row.
func (a *rowArena) concat(l, r []Value) []Value {
	row := a.next()
	copy(row, l)
	copy(row[len(l):], r)
	return row
}

func nullRow(n int) []Value {
	row := make([]Value, n)
	for i := range row {
		row[i] = NullValue
	}
	return row
}

func (e *Engine) crossProduct(a, b *Relation) (*Relation, error) {
	out := &Relation{Cols: append(append([]Col{}, a.Cols...), b.Cols...)}
	n := len(a.Rows) * len(b.Rows)
	if n > e.maxRows() {
		return nil, execErrorf("cross product exceeds row cap (%d x %d)", len(a.Rows), len(b.Rows))
	}
	e.ops.Add(int64(n))
	arena := newRowArena(len(out.Cols))
	out.Rows = make([][]Value, 0, n)
	for _, ra := range a.Rows {
		for _, rb := range b.Rows {
			out.Rows = append(out.Rows, arena.concat(ra, rb))
		}
	}
	return out, nil
}

// joinRelations executes an explicit join of two materialized relations.
// An ON clause that is one equality between plain column references uses a
// hash join; everything else is nested-loop. Both emit left-major rows with
// matches in right-input order, so they agree row for row.
func (e *Engine) joinRelations(left, right *Relation, joinType string, on sqlast.Expr, oe *opEnv) (*Relation, error) {
	out := &Relation{Cols: append(append([]Col{}, left.Cols...), right.Cols...)}
	if joinType == "CROSS" || on == nil {
		return e.crossProduct(left, right)
	}

	if li, ri, ok := equiJoinCols(on, left, right); ok {
		return e.hashJoin(left, right, li, ri, joinType, out)
	}

	// Nested-loop join with outer-join padding. The ON predicate evaluates
	// against one scratch row reused across candidates (expression
	// evaluation only reads the current row); only matching rows are
	// materialized, from the arena.
	joined := &env{rel: out, outer: oe.outer, ctes: oe.ctes}
	rightMatched := make([]bool, len(right.Rows))
	arena := newRowArena(len(out.Cols))
	scratch := make([]Value, len(left.Cols)+len(right.Cols))
	rightNulls := nullRow(len(right.Cols))
	var ops int64
	for _, lr := range left.Rows {
		matched := false
		copy(scratch, lr)
		for ri, rr := range right.Rows {
			ops++
			copy(scratch[len(lr):], rr)
			joined.row = scratch
			v, err := e.evalExpr(on, joined)
			if err != nil {
				e.ops.Add(ops)
				return nil, err
			}
			if v.Truthy() {
				matched = true
				rightMatched[ri] = true
				out.Rows = append(out.Rows, arena.concat(lr, rr))
				if len(out.Rows) > e.maxRows() {
					e.ops.Add(ops)
					return nil, execErrorf("join result exceeds row cap")
				}
			}
		}
		if !matched && (joinType == "LEFT" || joinType == "FULL") {
			out.Rows = append(out.Rows, arena.concat(lr, rightNulls))
		}
	}
	e.ops.Add(ops)
	if joinType == "RIGHT" || joinType == "FULL" {
		leftNulls := nullRow(len(left.Cols))
		for ri, rr := range right.Rows {
			if !rightMatched[ri] {
				out.Rows = append(out.Rows, arena.concat(leftNulls, rr))
			}
		}
	}
	return out, nil
}

// equiJoinCols recognizes ON a.x = b.y patterns and returns the column
// indexes on each side.
func equiJoinCols(on sqlast.Expr, left, right *Relation) (li, ri int, ok bool) {
	bin, isBin := on.(*sqlast.Binary)
	if !isBin || bin.Op != "=" {
		return 0, 0, false
	}
	lc, lok := bin.L.(*sqlast.ColumnRef)
	rc, rok := bin.R.(*sqlast.ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	tryResolve := func(rel *Relation, cr *sqlast.ColumnRef) (int, bool) {
		idx := rel.find(cr.Table, cr.Name)
		if len(idx) == 1 {
			return idx[0], true
		}
		return 0, false
	}
	if i, ok1 := tryResolve(left, lc); ok1 {
		if jx, ok2 := tryResolve(right, rc); ok2 {
			return i, jx, true
		}
	}
	if i, ok1 := tryResolve(left, rc); ok1 {
		if jx, ok2 := tryResolve(right, lc); ok2 {
			return i, jx, true
		}
	}
	return 0, 0, false
}

// joinKey returns the hash-join bucket of a non-NULL value. Equal must imply
// equal keys, or the hash join would miss pairs the nested loop finds.
// Numbers compare by float value, so every number keys by that value in one
// canonical text: integral values as integer text (folding -0 into 0),
// others in shortest 'g' form. Equal also matches a number with the text of
// its display form ("1e+06" = 1e6), so text that parses as a number keys
// like that number. Unequal values may share a key; the probe's Equal guard
// filters them. The one gap is NaN, which Compare ranks equal to every
// number: no single key can put it in every bucket.
func joinKey(v Value) string {
	switch v.Kind {
	case catalog.TypeInt, catalog.TypeFloat:
		return canonicalNumber(v.AsFloat())
	case catalog.TypeText:
		// Display forms of numbers start with a digit, '-', "+Inf" or "NaN".
		if s := v.S; s != "" && (s[0] >= '0' && s[0] <= '9' || s[0] == '-' || s[0] == '+' || s[0] == 'N') {
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				return canonicalNumber(f)
			}
		}
	}
	return v.String()
}

func canonicalNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1<<63 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func (e *Engine) hashJoin(left, right *Relation, li, ri int, joinType string, out *Relation) (*Relation, error) {
	index := make(map[string][]int, len(right.Rows))
	for idx, rr := range right.Rows {
		v := rr[ri]
		if v.Null {
			continue
		}
		k := joinKey(v)
		index[k] = append(index[k], idx)
	}
	e.ops.Add(int64(len(right.Rows)))
	rightMatched := make([]bool, len(right.Rows))
	arena := newRowArena(len(out.Cols))
	rightNulls := nullRow(len(right.Cols))
	out.Rows = make([][]Value, 0, len(left.Rows))
	for _, lr := range left.Rows {
		v := lr[li]
		matched := false
		if !v.Null {
			for _, idx := range index[joinKey(v)] {
				// Keys may collide across unequal values; Equal decides.
				if Equal(v, right.Rows[idx][ri]) {
					matched = true
					rightMatched[idx] = true
					out.Rows = append(out.Rows, arena.concat(lr, right.Rows[idx]))
					if len(out.Rows) > e.maxRows() {
						return nil, execErrorf("join result exceeds row cap")
					}
				}
			}
		}
		if !matched && (joinType == "LEFT" || joinType == "FULL") {
			out.Rows = append(out.Rows, arena.concat(lr, rightNulls))
		}
	}
	e.ops.Add(int64(len(left.Rows)))
	if joinType == "RIGHT" || joinType == "FULL" {
		leftNulls := nullRow(len(left.Cols))
		for idx, rr := range right.Rows {
			if !rightMatched[idx] {
				out.Rows = append(out.Rows, arena.concat(leftNulls, rr))
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// joinOp: explicit join — drain both children, join, stream the result.

type joinOp struct {
	oe          *opEnv
	node        *JoinNode
	left, right operator

	rel    *Relation
	cursor relCursor
}

func (o *joinOp) columns() []Col           { return o.rel.Cols }
func (o *joinOp) hiddenCols() int          { return 0 }
func (o *joinOp) materialized() *Relation  { return o.rel }
func (o *joinOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *joinOp) close()                   { o.left.close(); o.right.close() }

func (o *joinOp) open() error {
	left, err := drainInput(o.left)
	if err != nil {
		return err
	}
	right, err := drainInput(o.right)
	if err != nil {
		return err
	}
	rel, err := o.oe.e.joinRelations(left, right, o.node.Type, o.node.On, o.oe)
	if err != nil {
		return err
	}
	o.rel = rel
	o.cursor = relCursor{rows: rel.Rows}
	return nil
}

// ---------------------------------------------------------------------------
// crossOp: left-deep cross product of comma-joined inputs (no WHERE clause
// to mine for join conditions, or every WHERE conjunct pushed below).

type crossOp struct {
	oe     *opEnv
	inputs []operator

	rel    *Relation
	cursor relCursor
}

func (o *crossOp) columns() []Col           { return o.rel.Cols }
func (o *crossOp) hiddenCols() int          { return 0 }
func (o *crossOp) materialized() *Relation  { return o.rel }
func (o *crossOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *crossOp) close() {
	for _, in := range o.inputs {
		in.close()
	}
}

func (o *crossOp) open() error {
	var acc *Relation
	for _, in := range o.inputs {
		rel, err := drainInput(in)
		if err != nil {
			return err
		}
		if acc == nil {
			acc = rel
			continue
		}
		acc, err = o.oe.e.crossProduct(acc, rel)
		if err != nil {
			return err
		}
	}
	o.rel = acc
	o.cursor = relCursor{rows: acc.Rows}
	return nil
}

// ---------------------------------------------------------------------------
// implicitJoinOp: comma-joined FROM list plus conjunctive WHERE. The greedy
// left-deep ordering (planner.go) decides at open time which equality
// conjuncts become hash-join conditions; the leftover conjuncts filter the
// joined result here, so downstream operators see exactly the rows the
// query's WHERE admits.

type implicitJoinOp struct {
	oe     *opEnv
	node   *ImplicitJoinNode
	inputs []operator

	rel    *Relation
	cursor relCursor
}

func (o *implicitJoinOp) columns() []Col           { return o.rel.Cols }
func (o *implicitJoinOp) hiddenCols() int          { return 0 }
func (o *implicitJoinOp) materialized() *Relation  { return o.rel }
func (o *implicitJoinOp) next() ([][]Value, error) { return o.cursor.next(), nil }
func (o *implicitJoinOp) close() {
	for _, in := range o.inputs {
		in.close()
	}
}

func (o *implicitJoinOp) open() error {
	rels := make([]*Relation, len(o.inputs))
	for i, in := range o.inputs {
		rel, err := drainInput(in)
		if err != nil {
			return err
		}
		rels[i] = rel
	}
	joined, residual, err := o.oe.e.orderImplicitJoins(rels, o.node.Where)
	if err != nil {
		return err
	}
	if residual != nil {
		ev := o.oe.evalEnv(joined.Cols)
		filtered := &Relation{Cols: joined.Cols, Rows: make([][]Value, 0, len(joined.Rows))}
		o.oe.e.ops.Add(int64(len(joined.Rows)))
		for _, row := range joined.Rows {
			ev.row = row
			v, err := o.oe.e.evalExpr(residual, ev)
			if err != nil {
				return err
			}
			if v.Truthy() {
				filtered.Rows = append(filtered.Rows, row)
			}
		}
		joined = filtered
	}
	o.rel = joined
	o.cursor = relCursor{rows: joined.Rows}
	return nil
}
