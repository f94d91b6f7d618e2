package sim

import (
	"strings"

	"repro/internal/prompt"
)

// Classify is the simulators' reading of a prompt: the task they detect and
// the prompt quality they apply, both from the lowercased instruction.
func Classify(promptText string) (prompt.Task, float64) {
	r, _ := readPrompt(promptText)
	return r.task, promptQuality(r.instruction)
}

// ClassifyWholePrompt is the reference reading: the same wording checks run
// over the whole lowercased prompt, embedded SQL included.
func ClassifyWholePrompt(promptText string) (prompt.Task, float64) {
	lower := strings.ToLower(promptText)
	task, _ := prompt.DetectTaskLower(lower)
	return task, promptQuality(lower)
}
