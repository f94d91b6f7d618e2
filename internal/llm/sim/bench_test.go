package sim

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/llm"
	"repro/internal/prompt"
)

// simSink keeps the benchmarked responses alive.
var simSink llm.Response

// BenchmarkSimAnswer measures one memo-hit request per task through
// (*Model).Do: every statement is a memo key and was asked once before the
// timer starts, so what is left is the per-request work each of the five
// models repeats.
func BenchmarkSimAnswer(b *testing.B) {
	var (
		clean   = "SELECT p.objid , COUNT(*) FROM PhotoObj AS p JOIN SpecObj AS s ON p.objid = s.bestobjid WHERE s.z > 0.5 GROUP BY p.objid"
		invalid = "SELECT plate , COUNT(*) FROM SpecObj WHERE z > 0.5"
		damaged = "SELECT plate SpecObj WHERE z > 0.5"
		rewrite = "SELECT plate FROM SpecObj WHERE 0.5 < z"
		script  = "CREATE TABLE t ( a INT , b TEXT ) ; INSERT INTO t VALUES ( 1 , 'x' ) ; BEGIN ; DELETE FROM t ; ROLLBACK"
		left    = "SELECT plate FROM SpecObj WHERE z > 0.5"
	)
	k := NewBenchmarkKnowledge(map[string]*catalog.Schema{"SDSS": catalog.SDSS()},
		[]string{clean, invalid, damaged, script}, [][2]string{{left, rewrite}})
	m, err := New("GPT4", k)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		task   prompt.Task
		prompt string
	}{
		{prompt.SyntaxError, prompt.Default(prompt.SyntaxError).Render(invalid)},
		{prompt.MissToken, prompt.Default(prompt.MissToken).Render(damaged)},
		{prompt.FillToken, prompt.Default(prompt.FillToken).Render(damaged)},
		{prompt.QueryEquiv, prompt.Default(prompt.QueryEquiv).RenderPair(left, rewrite)},
		{prompt.PerfPred, prompt.Default(prompt.PerfPred).Render(clean)},
		{prompt.QueryExp, prompt.Default(prompt.QueryExp).Render(clean)},
		{prompt.TableState, prompt.Default(prompt.TableState).Render(script)},
	}
	ctx := context.Background()
	for _, c := range cases {
		req := llm.NewRequest(c.prompt)
		if _, err := m.Do(ctx, req); err != nil { // fill the memo
			b.Fatal(err)
		}
		b.Run(string(c.task), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := m.Do(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				simSink = resp
			}
		})
	}
}
