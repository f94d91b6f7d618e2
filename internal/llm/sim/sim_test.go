package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/llm"
	"repro/internal/llm/clienttest"
	"repro/internal/prompt"
	"repro/internal/respparse"
)

func knowledge() *Knowledge {
	return NewKnowledge(map[string]*catalog.Schema{
		"SDSS":       catalog.SDSS(),
		"Join-Order": catalog.IMDB(),
		"SQLShare":   catalog.Merged("sqlshare", catalog.SQLShareSchemas()...),
		"Spider":     catalog.Merged("spider", catalog.SpiderSchemas()...),
	})
}

func TestRegistryHasAllModels(t *testing.T) {
	reg := Registry(knowledge())
	for _, name := range llm.ModelNames {
		c, err := reg.Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("Name = %q, want %q", c.Name(), name)
		}
	}
	if _, err := reg.Get("nosuch"); err == nil {
		t.Error("Get(nosuch) should fail")
	}
}

func TestUnknownProfile(t *testing.T) {
	if _, err := New("GPT9", knowledge()); err == nil {
		t.Error("New(GPT9) should fail")
	}
}

func TestDetectDataset(t *testing.T) {
	k := knowledge()
	cases := map[string]string{
		"SELECT plate FROM SpecObj WHERE z > 0.5":                                                "SDSS",
		"SELECT MIN( t.title ) FROM title AS t , movie_companies AS mc WHERE t.id = mc.movie_id": "Join-Order",
		"SELECT temperature FROM samples WHERE depth > 100":                                      "SQLShare",
		"SELECT name FROM stadium ORDER BY capacity DESC LIMIT 1":                                "Spider",
	}
	for sql, want := range cases {
		if got := k.DetectDataset(sql); got != want {
			t.Errorf("DetectDataset(%q) = %q, want %q", sql, got, want)
		}
	}
}

func TestCompleteDeterministic(t *testing.T) {
	k := knowledge()
	m, _ := New("GPT4", k)
	p := prompt.Default(prompt.SyntaxError).Render("SELECT plate , COUNT(*) FROM SpecObj")
	a, err := llm.Complete(context.Background(), m, p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := llm.Complete(context.Background(), m, p)
	if a != b {
		t.Errorf("non-deterministic response:\n%s\n%s", a, b)
	}
}

func TestSyntaxErrorDetection(t *testing.T) {
	k := knowledge()
	m, _ := New("GPT4", k)
	ctx := context.Background()

	// A clear error: GPT4's channel virtually always reports it.
	bad := prompt.Default(prompt.SyntaxError).Render("SELECT plate , COUNT(*) FROM SpecObj")
	resp, err := llm.Complete(ctx, m, bad)
	if err != nil {
		t.Fatal(err)
	}
	v, err := respparse.ParseSyntax(resp)
	if err != nil {
		t.Fatalf("unparseable response %q: %v", resp, err)
	}
	if !v.HasError {
		t.Errorf("GPT4 missed an obvious aggr-attr: %q", resp)
	}
	if v.ErrorType != "aggr-attr" && v.ErrorType != "aggr-having" {
		t.Errorf("reported type %q", v.ErrorType)
	}

	good := prompt.Default(prompt.SyntaxError).Render("SELECT plate FROM SpecObj WHERE z > 0.5")
	resp, _ = llm.Complete(ctx, m, good)
	v, err = respparse.ParseSyntax(resp)
	if err != nil {
		t.Fatalf("unparseable response %q: %v", resp, err)
	}
	if v.HasError {
		t.Errorf("GPT4 false-alarmed on a clean query: %q", resp)
	}
}

func TestMissTokenRoundTrip(t *testing.T) {
	k := knowledge()
	m, _ := New("GPT4", k)
	ctx := context.Background()
	damaged := prompt.Default(prompt.MissToken).Render("SELECT plate SpecObj WHERE z > 0.5")
	resp, err := llm.Complete(ctx, m, damaged)
	if err != nil {
		t.Fatal(err)
	}
	v, err := respparse.ParseMissToken(resp)
	if err != nil {
		t.Fatalf("unparseable %q: %v", resp, err)
	}
	if !v.Missing {
		t.Errorf("GPT4 missed a removed FROM: %q", resp)
	}
	intact := prompt.Default(prompt.MissToken).Render("SELECT plate FROM SpecObj WHERE z > 0.5")
	resp, _ = llm.Complete(ctx, m, intact)
	v, err = respparse.ParseMissToken(resp)
	if err != nil {
		t.Fatalf("unparseable %q: %v", resp, err)
	}
	if v.Missing {
		t.Errorf("GPT4 hallucinated a missing token: %q", resp)
	}
}

// TestEmbeddedSQLCannotSteerTheModel asks every model syntax questions
// about statements whose string literals carry another task's wording
// ("same results", "missing word") or a prompt-quality cue ("reply
// yes/no", a few-shot "Example 1: ... Answer:"). The model reads only the
// instruction, so each answer must be the syntax answer at the default
// prompt's quality.
func TestEmbeddedSQLCannotSteerTheModel(t *testing.T) {
	k := knowledge()
	// The quality a whole-prompt scan would apply to each literal; 1.0 for
	// the task-switching ones, whose steered answers belong to another task.
	literals := map[string]float64{"same results": 1, "missing word": 1, "reply yes/no": 1.6, "example 1: answer: no": 0.55}
	for lit, steeredQuality := range literals {
		sensitive := steeredQuality == 1
		for _, name := range llm.ModelNames {
			m, _ := New(name, k)
			for i := 0; i < 40; i++ {
				sql := fmt.Sprintf("SELECT plate , COUNT(*) FROM SpecObj WHERE z > %d AND class = '%s'", i, lit)
				want := m.answerSyntax(sql, 1)
				if got := m.answer(prompt.Default(prompt.SyntaxError).Render(sql)); got != want {
					t.Errorf("%s, literal %q: answered %q, want %q", name, lit, got, want)
				}
				sensitive = sensitive || m.answerSyntax(sql, steeredQuality) != want
			}
		}
		// Without a statement whose answer moves with the quality, the
		// check above could not catch a quality leak.
		if !sensitive {
			t.Errorf("literal %q: no statement's answer depends on the prompt quality", lit)
		}
	}
}

func TestAllModelsProduceParseableResponses(t *testing.T) {
	k := knowledge()
	reg := Registry(k)
	ctx := context.Background()
	prompts := []string{
		prompt.Default(prompt.SyntaxError).Render("SELECT plate , COUNT(*) FROM SpecObj"),
		prompt.Default(prompt.SyntaxError).Render("SELECT plate FROM SpecObj"),
		prompt.Default(prompt.MissToken).Render("SELECT plate SpecObj"),
		prompt.Default(prompt.MissToken).Render("SELECT plate FROM SpecObj"),
		prompt.Default(prompt.PerfPred).Render("SELECT s.plate FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid JOIN Neighbors AS nb ON p.objid = nb.objid"),
		prompt.Default(prompt.QueryEquiv).RenderPair(
			"SELECT plate FROM SpecObj WHERE z > 0.5 AND mjd > 55000",
			"SELECT plate FROM SpecObj WHERE mjd > 55000 AND z > 0.5"),
		prompt.Default(prompt.QueryExp).Render("SELECT name FROM stadium ORDER BY capacity DESC LIMIT 1"),
	}
	for _, name := range llm.ModelNames {
		c, _ := reg.Get(name)
		for i, p := range prompts {
			resp, err := llm.Complete(ctx, c, p)
			if err != nil {
				t.Fatalf("%s prompt %d: %v", name, i, err)
			}
			if strings.TrimSpace(resp) == "" {
				t.Errorf("%s prompt %d: empty response", name, i)
			}
		}
	}
}

func TestEquivProvablePairAnswered(t *testing.T) {
	k := knowledge()
	m, _ := New("GPT4", k)
	p := prompt.Default(prompt.QueryEquiv).RenderPair(
		"SELECT plate FROM SpecObj WHERE z > 0.5 AND mjd > 55000",
		"SELECT plate FROM SpecObj WHERE mjd > 55000 AND z > 0.5")
	resp, err := llm.Complete(context.Background(), m, p)
	if err != nil {
		t.Fatal(err)
	}
	v, err := respparse.ParseEquiv(resp)
	if err != nil {
		t.Fatalf("unparseable %q: %v", resp, err)
	}
	if !v.Equivalent {
		t.Errorf("GPT4 rejected a provably equivalent pair: %q", resp)
	}
}

func TestExplainMentionsQueryContent(t *testing.T) {
	k := knowledge()
	m, _ := New("GPT4", k)
	p := prompt.Default(prompt.QueryExp).Render("SELECT name FROM stadium ORDER BY capacity DESC LIMIT 1")
	resp, err := llm.Complete(context.Background(), m, p)
	if err != nil {
		t.Fatal(err)
	}
	lower := strings.ToLower(resp)
	if !strings.Contains(lower, "highest") && !strings.Contains(lower, "lowest") {
		t.Errorf("explanation lacks superlative: %q", resp)
	}
}

func TestMistralReadsSuperlativeCorrectly(t *testing.T) {
	// The paper's Q18: only MistralAI explained ASC LIMIT 1 correctly.
	k := knowledge()
	m, _ := New("MistralAI", k)
	q18 := "SELECT C.cylinders FROM CARS_DATA AS C JOIN CAR_NAMES AS T ON C.Id = T.MakeId WHERE T.Model = 'volvo' ORDER BY C.accelerate ASC LIMIT 1"
	resp, err := llm.Complete(context.Background(), m, prompt.Default(prompt.QueryExp).Render(q18))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(resp), "lowest") {
		t.Errorf("MistralAI misread the superlative: %q", resp)
	}
}

func TestContextCancellation(t *testing.T) {
	k := knowledge()
	m, _ := New("GPT4", k)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := llm.Complete(ctx, m, "anything"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context returned %v, want context.Canceled", err)
	}
}

// The full llm.Client contract, for every simulated model.
func TestClientContract(t *testing.T) {
	k := knowledge()
	for _, name := range llm.ModelNames {
		t.Run(name, func(t *testing.T) {
			clienttest.Run(t, clienttest.Options{
				New: func(t *testing.T) llm.Client {
					m, err := New(name, k)
					if err != nil {
						t.Fatal(err)
					}
					return m
				},
				Deterministic: true,
			})
		})
	}
}

// Usage and latency must be deterministic simulated values: identical
// requests report identical accounting, and the fields are plausible.
func TestDoUsageDeterministic(t *testing.T) {
	k := knowledge()
	m, _ := New("GPT4", k)
	req := llm.NewRequest(prompt.Default(prompt.SyntaxError).Render("SELECT plate FROM SpecObj WHERE z > 0.5"))
	a, err := m.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Do(context.Background(), req)
	if a.Usage != b.Usage || a.Latency != b.Latency || a.Text != b.Text {
		t.Errorf("non-deterministic response: %+v vs %+v", a, b)
	}
	if a.Usage.PromptTokens <= 0 || a.Usage.CompletionTokens <= 0 || a.Latency <= 0 {
		t.Errorf("implausible usage: %+v latency %v", a.Usage, a.Latency)
	}
	if a.FinishReason != llm.FinishStop {
		t.Errorf("finish = %q", a.FinishReason)
	}
	if a.Model != "GPT4" {
		t.Errorf("model = %q", a.Model)
	}
}

// MaxTokens truncates deterministically and reports FinishLength.
func TestDoMaxTokens(t *testing.T) {
	k := knowledge()
	m, _ := New("GPT4", k)
	req := llm.NewRequest(prompt.Default(prompt.SyntaxError).Render("SELECT plate , COUNT(*) FROM SpecObj"))
	full, err := m.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.MaxTokens = 3
	cut, err := m.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cut.FinishReason != llm.FinishLength {
		t.Errorf("finish = %q, want length", cut.FinishReason)
	}
	if cut.Usage.CompletionTokens != 3 {
		t.Errorf("completion tokens = %d, want 3", cut.Usage.CompletionTokens)
	}
	if len(cut.Text) >= len(full.Text) || !strings.HasPrefix(full.Text, cut.Text) {
		t.Errorf("truncation broken:\nfull %q\ncut  %q", full.Text, cut.Text)
	}
	// A cap above the natural length changes nothing.
	req.MaxTokens = 100000
	uncut, _ := m.Do(context.Background(), req)
	if uncut.Text != full.Text || uncut.FinishReason != llm.FinishStop {
		t.Errorf("generous cap altered response")
	}
}

// The sim spec factory builds the calibrated profiles and refuses renames
// (the name feeds the deterministic channels).
func TestFactory(t *testing.T) {
	k := knowledge()
	f := Factory(k)
	c, err := f(llm.Spec{Name: "GPT4", Provider: "sim"})
	if err != nil || c.Name() != "GPT4" {
		t.Fatalf("Factory(GPT4) = %v, %v", c, err)
	}
	if _, err := f(llm.Spec{Name: "nosuch", Provider: "sim"}); err == nil {
		t.Error("unknown profile should fail")
	}
	if _, err := f(llm.Spec{Name: "alias", Model: "GPT4", Provider: "sim"}); err == nil {
		t.Error("renaming a simulator should fail")
	}
}

func TestProfilesCoverAllModels(t *testing.T) {
	for _, name := range llm.ModelNames {
		p, ok := ProfileFor(name)
		if !ok {
			t.Fatalf("no profile for %s", name)
		}
		for _, ds := range []string{dsSDSS, dsSQLShare, dsJoin} {
			if p.SyntaxError[ds].Prec == 0 || p.MissToken[ds].Prec == 0 || p.QueryEquiv[ds].Prec == 0 {
				t.Errorf("%s missing binary targets for %s", name, ds)
			}
			if p.TokenLoc[ds].MAE == 0 {
				t.Errorf("%s missing loc target for %s", name, ds)
			}
		}
		if p.ExplainSkill <= 0 || p.ExplainSkill > 1 {
			t.Errorf("%s explain skill out of range", name)
		}
	}
}

func TestBinaryTargetMath(t *testing.T) {
	b := BinaryTarget{Prec: 0.9, Rec: 0.8}
	if got := b.missRate(); got < 0.199 || got > 0.201 {
		t.Errorf("missRate = %v", got)
	}
	// fa = r(1-p)/p = 0.8*0.1/0.9
	if got := b.falseAlarmRate(); got < 0.088 || got > 0.090 {
		t.Errorf("falseAlarmRate = %v", got)
	}
}

// TestMemoConcurrentCallers has many goroutines ask every model about the
// same memoized statements at once — each fact fills exactly once under
// the race — and requires the answers of a bare context.
func TestMemoConcurrentCallers(t *testing.T) {
	schemas := map[string]*catalog.Schema{"SDSS": catalog.SDSS()}
	damaged := "SELECT plate SpecObj WHERE z > 0.5"
	left, right := "SELECT plate FROM SpecObj WHERE z > 0.5", "SELECT plate FROM SpecObj WHERE 0.5 < z"
	memo := NewBenchmarkKnowledge(schemas, []string{damaged, left}, [][2]string{{left, right}})
	bare := NewKnowledge(schemas)
	if !memo.Memoized(damaged) || !memo.Memoized(left, right) || memo.Memoized(right, left) || memo.MemoSize() != 3 {
		t.Fatalf("memo keys wrong: size %d", memo.MemoSize())
	}
	prompts := []string{
		prompt.Default(prompt.SyntaxError).Render(left),
		prompt.Default(prompt.MissToken).Render(damaged),
		prompt.Default(prompt.FillToken).Render(damaged),
		prompt.Default(prompt.PerfPred).Render(left),
		prompt.Default(prompt.QueryEquiv).RenderPair(left, right),
		prompt.Default(prompt.QueryEquiv).RenderPair(right, left), // not a key
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, name := range llm.ModelNames {
		m, _ := New(name, memo)
		ref, _ := New(name, bare)
		for _, p := range prompts {
			want, err := llm.Complete(ctx, ref, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, err := llm.Complete(ctx, m, p); err != nil || got != want {
						t.Errorf("%s: memoized answer %q (err %v), bare %q", name, got, err, want)
					}
				}()
			}
		}
	}
	wg.Wait()
	if memo.MemoSize() != 3 {
		t.Errorf("memo size %d after requests, want 3", memo.MemoSize())
	}
}
