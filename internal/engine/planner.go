package engine

import (
	"strings"

	"repro/internal/sqlast"
)

// Implicit-join ordering: comma-joined relations are joined left-deep using
// the equality conjuncts of the WHERE clause, and the conjuncts not consumed
// as join conditions are returned as the residual filter. Without this, a
// Join-Order-Benchmark-style query with a dozen comma-joined relations would
// materialize the full cross product.
//
// The ordering runs at execution time, not plan time, because it depends on
// each relation's resolved column set (subqueries and CTEs included). The
// logical plan carries it as an ImplicitJoinNode. The greedy order also
// fixes the result's column layout and row order, which SELECT * over a
// comma join exposes, so it is part of the engine's observable behavior.

// orderImplicitJoins joins the relations greedily: repeated passes over the
// conjuncts in order hash-join every one that connects the accumulated
// prefix to an unjoined relation; a pass that makes no progress
// cross-products the first unjoined relation instead.
func (e *Engine) orderImplicitJoins(rels []*Relation, where sqlast.Expr) (*Relation, sqlast.Expr, error) {
	conjuncts := splitConjuncts(where)
	used := make([]bool, len(conjuncts))
	joined := map[int]bool{0: true}
	acc := rels[0]
	for len(joined) < len(rels) {
		progressed := false
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			li, ri, target, ok := e.connects(c, acc, rels, joined)
			if !ok {
				continue
			}
			out := &Relation{Cols: append(append([]Col{}, acc.Cols...), rels[target].Cols...)}
			var err error
			if acc, err = e.hashJoin(acc, rels[target], li, ri, "INNER", out); err != nil {
				return nil, nil, err
			}
			joined[target] = true
			used[ci] = true
			progressed = true
		}
		if !progressed {
			// No connecting predicate: cross product with the next unjoined
			// relation and keep going.
			for i := range rels {
				if !joined[i] {
					var err error
					if acc, err = e.crossProduct(acc, rels[i]); err != nil {
						return nil, nil, err
					}
					joined[i] = true
					break
				}
			}
		}
	}
	var residual []sqlast.Expr
	for ci, c := range conjuncts {
		if !used[ci] {
			residual = append(residual, c)
		}
	}
	return acc, sqlast.And(residual...), nil
}

// connects reports whether conjunct c is an equality joining a column of the
// accumulated relation to a column of exactly one unjoined relation.
func (e *Engine) connects(c sqlast.Expr, acc *Relation, rels []*Relation, joined map[int]bool) (accIdx, relIdx, target int, ok bool) {
	bin, isBin := c.(*sqlast.Binary)
	if !isBin || bin.Op != "=" {
		return 0, 0, 0, false
	}
	lc, lok := bin.L.(*sqlast.ColumnRef)
	rc, rok := bin.R.(*sqlast.ColumnRef)
	if !lok || !rok {
		return 0, 0, 0, false
	}
	try := func(a, b *sqlast.ColumnRef) (int, int, int, bool) {
		ai := acc.find(a.Table, a.Name)
		if len(ai) != 1 {
			return 0, 0, 0, false
		}
		for i, rel := range rels {
			if joined[i] {
				continue
			}
			bi := rel.find(b.Table, b.Name)
			if len(bi) == 1 {
				return ai[0], bi[0], i, true
			}
		}
		return 0, 0, 0, false
	}
	if ai, bi, t, ok := try(lc, rc); ok {
		return ai, bi, t, true
	}
	if ai, bi, t, ok := try(rc, lc); ok {
		return ai, bi, t, true
	}
	return 0, 0, 0, false
}

// splitConjuncts flattens a tree of ANDs into its conjuncts.
func splitConjuncts(e sqlast.Expr) []sqlast.Expr {
	bin, ok := e.(*sqlast.Binary)
	if ok && strings.EqualFold(bin.Op, "AND") {
		return append(splitConjuncts(bin.L), splitConjuncts(bin.R)...)
	}
	return []sqlast.Expr{e}
}
