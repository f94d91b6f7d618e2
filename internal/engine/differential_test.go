package engine_test

// Differential test for predicate pushdown over the benchmark's own
// queries: every SELECT of the seed-1 workload plus every equivalence and
// non-equivalence rewrite of it — the statements the verified build's
// equivalence checker executes — runs on the checker's synthetic instances
// through the unoptimized reference engine and through the engine at
// intra-query parallelism 1 and 8, and every engine run must agree exactly
// with the reference.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/equiv"
	"repro/internal/sqlast"
)

func TestOptimizerDifferentialWorkloads(t *testing.T) {
	b, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	types := append(equiv.EquivTypes(), equiv.NonEquivTypes()...)
	var opsOn, opsOff int64
	for _, ds := range core.TaskDatasets {
		w := b.Workloads[ds]
		var stmts []*sqlast.SelectStmt
		for i, q := range w.Queries {
			sel, ok := q.Stmt.(*sqlast.SelectStmt)
			if !ok {
				continue
			}
			stmts = append(stmts, sel)
			r := rand.New(rand.NewSource(int64(i)))
			for _, typ := range types {
				if ds == core.JoinOrder && typ == equiv.LogicalConditions {
					// Rewriting the join graph's conjunctions into
					// disjunctions turns every Join-Order comma join into
					// cross products that run to the 1M-row cap: over 90%
					// of this test's runtime, on statements the build never
					// executes (it runs only equivalence rewrites).
					continue
				}
				if out, ok := equiv.Transform(sel, typ, r); ok {
					stmts = append(stmts, out)
				}
			}
		}
		for _, seed := range []int64{11, 29} {
			db := datagen.Instance(w.Schema, datagen.Config{Seed: seed, Rows: 24})
			ref := engine.NewReference(db)
			seq := engine.New(db)
			par := engine.New(db)
			par.Parallel = 8
			for _, sel := range stmts {
				want, wantErr := ref.Query(sel)
				for _, e := range []*engine.Engine{seq, par} {
					got, gotErr := e.Query(sel)
					if msg := diffRuns(got, want, gotErr, wantErr); msg != "" {
						t.Errorf("%s seed=%d parallel=%d: %s\n  %s", ds, seed, e.Parallel, msg, sqlast.Print(sel))
					}
				}
			}
			// Ops are compared at parallel 1 only: a query that errors under
			// intra-query parallelism cancels its workers mid-batch, so its
			// partial count is schedule-dependent.
			opsOn += seq.Ops()
			opsOff += ref.Ops()
		}
	}
	if opsOn >= opsOff {
		t.Errorf("pushdown did not reduce engine ops: %d (engine) >= %d (reference)", opsOn, opsOff)
	}
}

// diffRuns describes the first difference between two runs of a query —
// error presence or message, columns, rows, row order — or returns "".
func diffRuns(got, want *engine.Relation, gotErr, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return "error divergence: got " + errString(gotErr) + ", reference " + errString(wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return "error message divergence: got " + gotErr.Error() + ", reference " + wantErr.Error()
		}
		return ""
	case !reflect.DeepEqual(got.Cols, want.Cols):
		return "column divergence"
	case len(got.Rows) != len(want.Rows):
		return "row count divergence"
	}
	for i := range got.Rows {
		if engine.Key(got.Rows[i]) != engine.Key(want.Rows[i]) {
			return "row divergence"
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
