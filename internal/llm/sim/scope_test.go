package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/llm/sim"
	"repro/internal/prompt"
)

// TestInstructionScanMatchesWholePrompt renders every statement of every
// seed-1 task cell with every prompt template, and in a few-shot prompt,
// and requires the instruction-only reading to give the task and prompt
// quality the whole-prompt reference gives. Narrowing the scan to the
// instruction then moves no benchmark answer; only caller SQL that carries
// prompt wording reads differently.
func TestInstructionScanMatchesWholePrompt(t *testing.T) {
	b, err := core.Build(core.BuildConfig{Seed: 1, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	var singles []string
	var pairs [][2]string
	for _, task := range core.Tasks() {
		for _, ds := range task.Datasets() {
			cell, _ := task.Cell(b, ds)
			for _, ex := range cell {
				if task.PairInput() {
					pairs = append(pairs, [2]string{ex.SQL[0], ex.SQL[1]})
				} else {
					singles = append(singles, ex.SQL[0])
				}
			}
		}
	}
	// The worked examples of the few-shot experiment.
	shots := []prompt.Shot{
		{SQL: "SELECT plate , mjd , COUNT(*) FROM SpecObj", Answer: "yes; type=aggr-attr; non-aggregated columns appear without GROUP BY"},
		{SQL: "SELECT plate , mjd FROM SpecObj WHERE z > 0.5", Answer: "no error"},
	}
	checked, wrong := 0, 0
	check := func(id, p string) {
		checked++
		task, quality := sim.Classify(p)
		wantTask, wantQuality := sim.ClassifyWholePrompt(p)
		if task != wantTask || quality != wantQuality {
			if wrong++; wrong <= 10 {
				t.Errorf("%s: instruction reads (%q, %v), whole prompt (%q, %v) in %q", id, task, quality, wantTask, wantQuality, p)
			}
		}
	}
	for _, task := range prompt.Tasks {
		for _, tpl := range prompt.Variants(task) {
			if task == prompt.QueryEquiv {
				for _, p := range pairs {
					check(tpl.ID, tpl.RenderPair(p[0], p[1]))
				}
				continue
			}
			for _, sql := range singles {
				check(tpl.ID, tpl.Render(sql))
			}
		}
		if task != prompt.QueryEquiv {
			tpl := prompt.Default(task)
			for _, sql := range singles {
				check(tpl.ID+" few-shot", tpl.RenderFewShot(sql, shots))
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d prompts classified differently", wrong, checked)
	}
	t.Logf("%d prompts over %d statements and %d pairs", checked, len(singles), len(pairs))
}
