package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/runner"
)

// promptRecorder is a model client that records every prompt it is sent
// and answers with a fixed text.
type promptRecorder struct {
	mu      sync.Mutex
	prompts []string
}

func (r *promptRecorder) Name() string { return "recorder" }

func (r *promptRecorder) Do(_ context.Context, req llm.Request) (llm.Response, error) {
	r.mu.Lock()
	r.prompts = append(r.prompts, req.UserPrompt())
	r.mu.Unlock()
	return llm.Response{Text: "no"}, nil
}

// adHocInputs returns caller-style statements no benchmark holds: a clean
// query, one with a dropped keyword, one with a semantic error, and a
// DML script, plus pairs for the pair task.
func adHocInputs(task core.Task) [][]string {
	if task.PairInput() {
		return [][]string{
			{"SELECT plate FROM SpecObj WHERE z > 0.5", "SELECT plate FROM SpecObj WHERE 0.5 < z"},
			{"SELECT plate FROM SpecObj WHERE z > 0.5", "SELECT plate FROM SpecObj WHERE z > 0.7"},
			{"SELECT plate SpecObj", "SELECT plate FROM SpecObj"},
		}
	}
	return [][]string{
		{"SELECT plate , mjd FROM SpecObj WHERE z > 0.5"},
		{"SELECT plate SpecObj WHERE z > 0.5"},
		{"SELECT plate , COUNT(*) FROM SpecObj"},
		{"CREATE TABLE t ( a INT , b TEXT ) ; INSERT INTO t VALUES ( 1 , 'x' ) ; BEGIN ; DELETE FROM t ; ROLLBACK"},
	}
}

// adHocExamples builds the task's ad-hoc examples from adHocInputs, skipping
// inputs the task rejects (a state script must create a table).
func adHocExamples(task core.Task) []core.Example {
	var out []core.Example
	for i, sql := range adHocInputs(task) {
		ex, err := task.AdHoc(fmt.Sprintf("adhoc-%d", i), sql)
		if err == nil {
			out = append(out, ex)
		}
	}
	return out
}

// TestMemoKeysCoverPrompts renders every example of every task cell of a
// seed-1 environment and checks that the statement (or pair) the
// simulators read back out of each prompt is a key of the environment's
// memo. A prompt-format change that altered the extracted text would
// otherwise turn every lookup into a silent miss.
func TestMemoKeysCoverPrompts(t *testing.T) {
	env, err := NewEnvConfig(Config{Seed: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx := runner.WithParallelism(context.Background(), 4)
	for _, task := range core.Tasks() {
		for _, ds := range task.Datasets() {
			cell, _ := task.Cell(env.Bench, ds)
			rec := &promptRecorder{}
			if err := task.RunStream(ctx, rec, cell, func(any) error { return nil }); err != nil {
				t.Fatalf("%s/%s: %v", task.ID(), ds, err)
			}
			if len(rec.prompts) != len(cell) {
				t.Fatalf("%s/%s: %d prompts for %d examples", task.ID(), ds, len(rec.prompts), len(cell))
			}
			for _, p := range rec.prompts {
				_, sql, ok := sim.Statements(p)
				if !ok {
					t.Fatalf("%s/%s: the simulators read no statement from %q", task.ID(), ds, p)
				}
				if !env.knowledge.Memoized(sql...) {
					t.Errorf("%s/%s: extracted %q is not a memo key", task.ID(), ds, sql)
				}
			}
		}
	}
}

// diffClient sends every request to a model over a memoized knowledge
// context and to the same model over a bare one, and fails the run when
// their responses differ.
type diffClient struct {
	memo, bare llm.Client
}

func (d diffClient) Name() string { return d.memo.Name() }

func (d diffClient) Do(ctx context.Context, req llm.Request) (llm.Response, error) {
	got, err := d.memo.Do(ctx, req)
	if err != nil {
		return got, err
	}
	want, err := d.bare.Do(ctx, req)
	if err != nil {
		return got, err
	}
	if got != want {
		return got, fmt.Errorf("memoized response %+v, bare %+v for prompt %q", got, want, req.UserPrompt())
	}
	return got, nil
}

// TestMemoizedKnowledgeMatchesBare drives all five simulators concurrently
// over every cell of every task, plus ad-hoc statements, and requires the
// memoized knowledge context to answer exactly as a bare NewKnowledge one.
func TestMemoizedKnowledgeMatchesBare(t *testing.T) {
	b, err := core.Build(core.BuildConfig{Seed: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	memo := NewKnowledge(b)
	bare := sim.NewKnowledge(b.SchemasByDataset())
	ctx := runner.WithParallelism(context.Background(), 2)
	for _, task := range core.Tasks() {
		var cells [][]core.Example
		for _, ds := range task.Datasets() {
			cell, _ := task.Cell(b, ds)
			cells = append(cells, cell)
		}
		cells = append(cells, adHocExamples(task))
		for _, cell := range cells {
			var wg sync.WaitGroup
			errs := make([]error, len(llm.ModelNames))
			for i, name := range llm.ModelNames {
				m, err := sim.New(name, memo)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.New(name, bare)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, c llm.Client) {
					defer wg.Done()
					errs[i] = task.RunStream(ctx, c, cell, func(any) error { return nil })
				}(i, diffClient{memo: m, bare: ref})
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("%s/%s: %v", task.ID(), llm.ModelNames[i], err)
				}
			}
		}
	}
}

// TestAdHocSQLLeavesMemoUnchanged sends ad-hoc statements of every task to
// every simulator and checks that none of them became a memo entry.
func TestAdHocSQLLeavesMemoUnchanged(t *testing.T) {
	b, err := core.Build(core.BuildConfig{Seed: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := NewKnowledge(b)
	size := k.MemoSize()
	if size == 0 {
		t.Fatal("the benchmark memoized nothing")
	}
	ctx := runner.WithParallelism(context.Background(), 4)
	for _, task := range core.Tasks() {
		examples := adHocExamples(task)
		if len(examples) == 0 {
			t.Fatalf("%s: no ad-hoc example", task.ID())
		}
		for _, name := range llm.ModelNames {
			m, err := sim.New(name, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := task.RunStream(ctx, m, examples, func(any) error { return nil }); err != nil {
				t.Fatalf("%s/%s: %v", task.ID(), name, err)
			}
		}
		for _, ex := range examples {
			if k.Memoized(ex.SQL...) {
				t.Errorf("%s: ad-hoc %q is a memo key", task.ID(), ex.SQL)
			}
		}
	}
	if got := k.MemoSize(); got != size {
		t.Errorf("memo size %d after ad-hoc requests, %d before", got, size)
	}
}
