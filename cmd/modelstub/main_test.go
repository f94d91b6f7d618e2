package main

import (
	"testing"

	"repro/internal/prompt"
)

// TestEveryVariantGetsItsTaskReply renders every template variant of every
// task and requires the reply the task's default (v1) prompt gets: the stub
// reads the task the way the simulators do, so a reworded prompt is not
// answered as a syntax question.
func TestEveryVariantGetsItsTaskReply(t *testing.T) {
	const (
		sql    = "SELECT plate FROM SpecObj WHERE z > 0.5"
		sql2   = "SELECT plate FROM SpecObj WHERE 0.5 < z"
		script = "CREATE TABLE t ( a INT , b TEXT ) ; INSERT INTO t VALUES ( 1 , 'x' ) ; INSERT INTO t VALUES ( 2 , 'y' ) ; BEGIN ; DELETE FROM t WHERE a = 1 ; ROLLBACK"
	)
	render := func(tpl prompt.Template) string {
		switch tpl.Task {
		case prompt.QueryEquiv:
			return tpl.RenderPair(sql, sql2)
		case prompt.TableState:
			return tpl.Render(script)
		}
		return tpl.Render(sql)
	}
	// The v1 replies, byte for byte: the service, storage and chaos smokes
	// grade streams of them.
	want := map[prompt.Task]string{
		prompt.SyntaxError: "No, the query does not contain any syntax errors. It is well-formed SQL.",
		prompt.MissToken:   "No. The query appears complete, with no missing words.",
		prompt.QueryEquiv:  "Yes, the two queries are equivalent: the rewrite is a where_predicate transformation that preserves results.",
		prompt.PerfPred:    "No, this query should run quickly; it touches limited data.",
		prompt.QueryExp:    "This query returns rows selected from the referenced tables.",
		prompt.FillToken:   `Yes, a token is absent. The missing token is "FROM".`,
		prompt.TableState:  "Final contents: ( 1 , 'x' ) ( 2 , 'y' )",
	}
	for _, task := range prompt.Tasks {
		if got := answer(render(prompt.Default(task))); got != want[task] {
			t.Errorf("%s v1 reply %q, want %q", task, got, want[task])
		}
		for _, tpl := range prompt.Variants(task) {
			if got := answer(render(tpl)); got != want[task] {
				t.Errorf("%s: reply %q, want the %s reply %q", tpl.ID, got, task, want[task])
			}
		}
	}
	if got := answer("What is the capital of France?"); got != want[prompt.SyntaxError] {
		t.Errorf("unrecognised prompt: reply %q, want the syntax reply", got)
	}
}
