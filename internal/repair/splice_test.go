package repair

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/semcheck"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// insertAt is the text-level reference for splice: the token texts joined
// by single spaces with tok inserted before index gap, to be lexed and
// parsed from scratch.
func insertAt(texts []string, gap int, tok string) string {
	parts := make([]string, 0, len(texts)+1)
	parts = append(parts, texts[:gap]...)
	parts = append(parts, tok)
	parts = append(parts, texts[gap:]...)
	return strings.Join(parts, " ")
}

// referenceRepairAt is repairAt written against insertAt: every candidate
// is inserted as text, and the rebuilt statement re-lexed and re-parsed.
func referenceRepairAt(sql string, toks []sqllex.Token, fail int) Result {
	texts := make([]string, len(toks))
	for i, t := range toks {
		texts[i] = t.Text
	}
	lo, hi := max(fail-3, 0), min(fail+2, len(toks))
	for gap := lo; gap <= hi; gap++ {
		var order []string
		var kinds []mutate.TokenKind
		add := func(text string, kind mutate.TokenKind) {
			order = append(order, text)
			kinds = append(kinds, kind)
		}
		if valueLike(toks, gap-1) && valueLike(toks, gap) {
			add("=", mutate.TokComparison)
		}
		if gap > 0 && toks[gap-1].Kind == sqllex.Op && comparisonOp(toks[gap-1].Text) {
			add("0", mutate.TokValue)
		}
		for _, kw := range keywordCandidates {
			add(kw, mutate.TokKeyword)
		}
		add("x0", mutate.TokColumn)
		add("0", mutate.TokValue)
		add("'v'", mutate.TokValue)
		add("=", mutate.TokComparison)
		for i, text := range order {
			if _, err := sqlparse.ParseStatement(insertAt(texts, gap, text)); err == nil {
				kind := kinds[i]
				if kind == mutate.TokColumn {
					kind = classifyIdentGap(toks, gap)
				}
				return Result{Found: true, Kind: kind, WordIndex: wordIndexOfToken(sql, toks, gap), Inserted: text}
			}
		}
	}
	return Result{Found: true, Kind: mutate.TokKeyword, WordIndex: wordIndexOfToken(sql, toks, fail), Inserted: ""}
}

// buildSeeds returns the unverified benchmarks the differential tests run
// over.
func buildSeeds(t *testing.T) []*core.Benchmark {
	t.Helper()
	var out []*core.Benchmark
	for seed := int64(1); seed <= 3; seed++ {
		b, err := core.Build(core.BuildConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, b)
	}
	return out
}

// damagedStatements returns the distinct statements of the tokens and fill
// cells that do not parse: the inputs repairAt searches over.
func damagedStatements(t *testing.T, b *core.Benchmark) []string {
	t.Helper()
	seen := map[string]bool{}
	var out []string
	for _, id := range []string{"tokens", "fill"} {
		task, ok := core.TaskByID(id)
		if !ok {
			t.Fatalf("task %s not registered", id)
		}
		for _, ds := range task.Datasets() {
			cell, _ := task.Cell(b, ds)
			for _, ex := range cell {
				sql := ex.SQL[0]
				if seen[sql] {
					continue
				}
				seen[sql] = true
				if _, err := sqlparse.ParseStatement(sql); err != nil {
					out = append(out, sql)
				}
			}
		}
	}
	return out
}

// TestSpliceMatchesReparse checks the token splice against the text-level
// reference: for every damaged statement of seeds 1-3, every gap repairAt
// searches and every candidate, parsing the spliced tokens succeeds exactly
// when re-lexing and re-parsing the rebuilt text does; and repairAt returns
// the reference's result, so the same repair wins.
func TestSpliceMatchesReparse(t *testing.T) {
	checked := 0
	for i, b := range buildSeeds(t) {
		for _, sql := range damagedStatements(t, b) {
			toks, err := sqllex.LexWords(sql)
			if err != nil || len(toks) == 0 {
				continue // Detect answers these before repairAt
			}
			_, perr := sqlparse.ParseTokens(toks)
			if perr == nil {
				t.Fatalf("seed %d: ParseTokens accepts %q, ParseStatement rejects it", i+1, sql)
			}
			fail := failureIndex(perr, toks)
			texts := make([]string, len(toks))
			for j, tok := range toks {
				texts[j] = tok.Text
			}
			buf := make([]sqllex.Token, len(toks)+1)
			for gap := max(fail-3, 0); gap <= min(fail+2, len(toks)); gap++ {
				// candidates holds every text the leading guesses use too.
				for _, c := range candidates {
					_, serr := sqlparse.ParseTokens(splice(buf, toks, gap, c.tok))
					_, rerr := sqlparse.ParseStatement(insertAt(texts, gap, c.tok.Text))
					if (serr == nil) != (rerr == nil) {
						t.Errorf("seed %d: %q gap %d candidate %q: splice err %v, reparse err %v",
							i+1, sql, gap, c.tok.Text, serr, rerr)
					}
					checked++
				}
			}
			if got, want := repairAt(sql, toks, fail), referenceRepairAt(sql, toks, fail); got != want {
				t.Errorf("seed %d: repairAt(%q) = %+v, reference %+v", i+1, sql, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no damaged statement reached repairAt")
	}
}

// TestParseTokensMatchesParseStatement checks that parsing a statement's
// word tokens prints the same tree as parsing its text, for every workload
// statement of seeds 1-3.
func TestParseTokensMatchesParseStatement(t *testing.T) {
	n := 0
	for i, b := range buildSeeds(t) {
		for _, ds := range []string{core.SDSS, core.SQLShare, core.JoinOrder, core.Spider} {
			for _, q := range b.Workloads[ds].Queries {
				toks, err := sqllex.LexWords(q.SQL)
				if err != nil {
					t.Fatalf("seed %d: lexing %s: %v", i+1, q.ID, err)
				}
				want, werr := sqlparse.ParseStatement(q.SQL)
				got, gerr := sqlparse.ParseTokens(toks)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("seed %d %s: ParseStatement err %v, ParseTokens err %v", i+1, q.ID, werr, gerr)
				}
				if werr != nil {
					if werr.Error() != gerr.Error() {
						t.Errorf("seed %d %s: error %q, want %q", i+1, q.ID, gerr, werr)
					}
					continue
				}
				if g, w := sqlast.Print(got), sqlast.Print(want); g != w {
					t.Errorf("seed %d %s: ParseTokens prints\n%s\nwant\n%s", i+1, q.ID, g, w)
				}
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("no workload statement parsed")
	}
}

// TestCheckLeavesTreeUnchanged backs Detect's single parse: semantic
// checking and fromTables' walk must not write to the tree the later steps
// read, for any workload statement of seeds 1-3.
func TestCheckLeavesTreeUnchanged(t *testing.T) {
	for i, b := range buildSeeds(t) {
		var schemas []*catalog.Schema
		for _, s := range b.SchemasByDataset() {
			schemas = append(schemas, s)
		}
		schema := catalog.Merged("all", schemas...)
		checker := semcheck.New(schema)
		for _, ds := range []string{core.SDSS, core.SQLShare, core.JoinOrder, core.Spider} {
			for _, q := range b.Workloads[ds].Queries {
				stmt, err := sqlparse.ParseStatement(q.SQL)
				if err != nil {
					continue
				}
				before := sqlast.Print(stmt)
				checker.Check(stmt)
				fromTables(stmt, schema)
				if after := sqlast.Print(stmt); after != before {
					t.Errorf("seed %d %s: checking rewrote the tree\n%s\nto\n%s", i+1, q.ID, before, after)
				}
			}
		}
	}
}
