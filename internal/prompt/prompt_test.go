package prompt

import (
	"strings"
	"testing"
)

func TestRenderAndExtract(t *testing.T) {
	tpl := Default(SyntaxError)
	q := "SELECT plate FROM SpecObj WHERE z > 0.5"
	p := tpl.Render(q)
	got, ok := ExtractQuery(p)
	if !ok || got != q {
		t.Errorf("ExtractQuery = %q, %v", got, ok)
	}
}

func TestRenderPairAndExtract(t *testing.T) {
	tpl := Default(QueryEquiv)
	q1 := "SELECT a FROM t"
	q2 := "SELECT a FROM t WHERE 1 = 1"
	p := tpl.RenderPair(q1, q2)
	g1, g2, ok := ExtractQueryPair(p)
	if !ok || g1 != q1 || g2 != q2 {
		t.Errorf("ExtractQueryPair = %q, %q, %v", g1, g2, ok)
	}
}

func TestDetectTaskAllVariants(t *testing.T) {
	// Besides a plain query, queries whose string literals carry other
	// tasks' wording or prompt-quality cues: detection reads only the
	// instruction, so the embedded SQL must not switch the task.
	queries := []string{"SELECT 1"}
	for _, lit := range []string{"same results", "missing word", "reply yes/no", "example 1:", "exact missing token", "final contents"} {
		queries = append(queries, "SELECT '"+lit+"' AS note FROM photoobj")
	}
	for _, q := range queries {
		for _, task := range Tasks {
			for _, tpl := range Variants(task) {
				var rendered string
				if task == QueryEquiv {
					rendered = tpl.RenderPair(q, q+" WHERE 1 = 1")
				} else {
					rendered = tpl.Render(q)
				}
				got, ok := DetectTask(rendered)
				if !ok || got != task {
					t.Errorf("DetectTask(%s, %q) = %q, %v", tpl.ID, q, got, ok)
				}
			}
		}
	}
}

func TestDetectTaskUnknown(t *testing.T) {
	if _, ok := DetectTask("What is the capital of France?"); ok {
		t.Error("detected a task in unrelated text")
	}
}

func TestVariantsPerTask(t *testing.T) {
	for _, task := range Tasks {
		vs := Variants(task)
		if len(vs) < 3 {
			t.Errorf("task %s has %d variants, want >= 3", task, len(vs))
		}
		if vs[0].ID != Default(task).ID {
			t.Errorf("Default(%s) is not the first variant", task)
		}
		seen := map[string]bool{}
		for _, v := range vs {
			if seen[v.ID] {
				t.Errorf("duplicate variant id %s", v.ID)
			}
			seen[v.ID] = true
			if v.Task != task {
				t.Errorf("variant %s has task %s", v.ID, v.Task)
			}
		}
	}
}

func TestExtractQueryMissingMarker(t *testing.T) {
	if _, ok := ExtractQuery("no marker here"); ok {
		t.Error("extracted query without marker")
	}
	if _, _, ok := ExtractQueryPair("no markers"); ok {
		t.Error("extracted pair without markers")
	}
}

func TestRenderFewShot(t *testing.T) {
	tpl := Default(SyntaxError)
	shots := []Shot{
		{SQL: "SELECT a , COUNT(*) FROM t", Answer: "yes; aggr-attr"},
		{SQL: "SELECT a FROM t", Answer: "no error"},
	}
	target := "SELECT b FROM u WHERE c > 1"
	p := tpl.RenderFewShot(target, shots)
	// The target query must be the one extracted (examples come first).
	got, ok := ExtractQuery(p)
	if !ok || got != target {
		t.Errorf("ExtractQuery = %q, %v", got, ok)
	}
	if !strings.Contains(p, "Example 1:") || !strings.Contains(p, "Example 2:") {
		t.Errorf("examples missing from %q", p)
	}
	if task, ok := DetectTask(p); !ok || task != SyntaxError {
		t.Errorf("DetectTask = %v, %v", task, ok)
	}
}

func TestPaperPromptWording(t *testing.T) {
	// The default prompts must carry the paper's published wording.
	if !strings.Contains(Default(PerfPred).Text, "longer than usual") {
		t.Error("performance prompt diverged from the paper")
	}
	if !strings.Contains(Default(MissToken).Text, "word count position") {
		t.Error("miss_token prompt diverged from the paper")
	}
	if !strings.Contains(Default(QueryExp).Text, "single statement describing") {
		t.Error("query_exp prompt diverged from the paper")
	}
}

func TestInstruction(t *testing.T) {
	tpl := Default(SyntaxError)
	shots := []Shot{{SQL: "SELECT a FROM t", Answer: "no error"}}
	pair := Default(QueryEquiv)
	cases := []struct{ name, prompt, want string }{
		{"single", tpl.Render("SELECT 1"), tpl.Text + "\n\n"},
		{"pair", pair.RenderPair("SELECT 1", "SELECT 2"), pair.Text + "\n\n"},
		// A pair whose statements contain the single-query marker is still
		// cut at "SQL 1:".
		{"pair with marker literal", pair.RenderPair("SELECT 'SQL:'", "SELECT 'SQL:'"), pair.Text + "\n\n"},
		// A single query containing the pair marker is cut at "SQL:".
		{"single with pair marker literal", tpl.Render("SELECT 'SQL 1:'"), tpl.Text + "\n\n"},
		{"no marker", "What is the capital of France?", "What is the capital of France?"},
	}
	for _, c := range cases {
		if got := Instruction(c.prompt); got != c.want {
			t.Errorf("%s: Instruction = %q, want %q", c.name, got, c.want)
		}
	}
	// Few-shot examples are instruction: the cut is at the last "SQL:".
	fs := tpl.RenderFewShot("SELECT b FROM u", shots)
	if got := Instruction(fs); !strings.Contains(got, "Example 1:") || !strings.Contains(got, "Answer: no error") || strings.Contains(got, "SELECT b FROM u") {
		t.Errorf("few-shot Instruction = %q", got)
	}
}
