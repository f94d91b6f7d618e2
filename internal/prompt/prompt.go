// Package prompt defines the task prompts from the paper's Section 3.4,
// including the variant sets used by the prompt-tuning mock experiments.
// Queries are embedded after "SQL:" markers (or "SQL 1:"/"SQL 2:" for
// pairs), which is the contract the response side relies on.
package prompt

import (
	"fmt"
	"strings"
)

// Task identifies a prompted SQL task. Multi-part tasks (binary + type +
// location) share a single prompt, as in the paper.
type Task string

// Tasks.
const (
	SyntaxError Task = "syntax_error" // also syntax_error_type
	MissToken   Task = "miss_token"   // also miss_token_type, miss_token_loc
	QueryEquiv  Task = "query_equiv"  // also query_equiv_type
	PerfPred    Task = "performance_pred"
	QueryExp    Task = "query_exp"
	FillToken   Task = "fill_token"  // missing-token recovery (fill-in) variant
	TableState  Task = "table_state" // final table contents after a DML/transaction script
)

// Tasks lists all prompted tasks.
var Tasks = []Task{SyntaxError, MissToken, QueryEquiv, PerfPred, QueryExp, FillToken, TableState}

// Markers for query embedding.
const (
	MarkerQuery  = "SQL:"
	MarkerQuery1 = "SQL 1:"
	MarkerQuery2 = "SQL 2:"
)

// Template is one prompt formulation for a task.
type Template struct {
	Task Task
	ID   string // e.g. "syntax_error/v1"
	Text string // instruction text; the query is appended after the marker
}

// Render produces the full prompt for a single-query task.
func (t Template) Render(sql string) string {
	return t.Text + "\n\n" + MarkerQuery + " " + sql
}

// Shot is one worked example for few-shot prompting.
type Shot struct {
	SQL    string
	Answer string
}

// RenderFewShot produces a few-shot prompt: the instruction, worked
// examples, then the target query. The paper evaluates zero-shot only but
// names few-shot prompting as the natural mitigation; this implements it.
func (t Template) RenderFewShot(sql string, shots []Shot) string {
	var b strings.Builder
	b.WriteString(t.Text)
	b.WriteString("\n")
	for i, s := range shots {
		fmt.Fprintf(&b, "\nExample %d:\n%s %s\nAnswer: %s\n", i+1, MarkerQuery, s.SQL, s.Answer)
	}
	b.WriteString("\nNow the real query.\n\n")
	b.WriteString(MarkerQuery)
	b.WriteString(" ")
	b.WriteString(sql)
	return b.String()
}

// RenderPair produces the full prompt for a query-pair task.
func (t Template) RenderPair(sql1, sql2 string) string {
	return t.Text + "\n\n" + MarkerQuery1 + " " + sql1 + "\n" + MarkerQuery2 + " " + sql2
}

// variants lists the candidate formulations per task. The first entry is the
// paper's published prompt; the tuner (Tune) selects among them.
var variants = map[Task][]Template{
	SyntaxError: {
		{SyntaxError, "syntax_error/v1", "Does the following query contain any syntax errors? If so, explain the error and state the error type."},
		{SyntaxError, "syntax_error/v2", "You are a SQL reviewer. Check this query for syntax or semantic errors. Answer yes or no, then name the error type if any."},
		{SyntaxError, "syntax_error/v3", "Is this SQL query valid? Reply yes/no and identify any error."},
	},
	MissToken: {
		{MissToken, "miss_token/v1", "Does the following query have any syntax errors? (yes/no) If yes, is there a missing word? (yes/no) If yes, what is the type of the missing word? If yes, what is the missing word? If yes, what is the position of the missing word? (Provide the word count position where the word is missing.)"},
		{MissToken, "miss_token/v2", "Check whether a token is missing from this SQL query. If one is missing, report its type (keyword, table, column, value, alias, comparison), the token, and its word position."},
		{MissToken, "miss_token/v3", "Something may have been deleted from this query. Say yes or no, and if yes identify what and where."},
	},
	QueryEquiv: {
		{QueryEquiv, "query_equiv/v1", "Are the following two queries equivalent (do they produce the same results on the same database schema)? If yes, why are they equivalent? Also name the transformation type relating them."},
		{QueryEquiv, "query_equiv/v2", "Decide whether these two SQL queries always return identical results. Answer equivalent or not equivalent, and classify the rewrite."},
		{QueryEquiv, "query_equiv/v3", "Same results or not? Compare the two queries and explain."},
	},
	PerfPred: {
		{PerfPred, "performance_pred/v1", "Does the following query take longer than usual to run?"},
		{PerfPred, "performance_pred/v2", "Classify this query's runtime cost as high or low, considering its joins, predicates, and the tables it scans."},
		{PerfPred, "performance_pred/v3", "Will this query be slow? Answer yes or no."},
	},
	QueryExp: {
		{QueryExp, "query_exp/v1", "Provide a single statement describing this query:"},
		{QueryExp, "query_exp/v2", "Explain in one sentence what this SQL query returns."},
		{QueryExp, "query_exp/v3", "Summarize the purpose of this query."},
	},
	FillToken: {
		{FillToken, "fill_token/v1", "One token may be absent from the following SQL query. If so, reply with the exact missing token in double quotes; otherwise reply that the query is complete."},
		{FillToken, "fill_token/v2", "Repair this SQL query if a token was dropped: give the exact missing token in double quotes, or state that the query is complete."},
		{FillToken, "fill_token/v3", "Fill in the gap. Reply with the exact missing token, or 'complete'."},
	},
	TableState: {
		{TableState, "table_state/v1", "The following SQL script creates a table and modifies it. What are the final contents of the table after running the script? List every row in parentheses, separated by commas, with text values in single quotes — for example ( 1 , 'alpha' ). If no rows remain, reply that the table is empty. A BEGIN..ROLLBACK block leaves the table unchanged."},
		{TableState, "table_state/v2", "Execute this DML script mentally. What rows does the table contain after running it? Give each row as a parenthesized tuple, text in single quotes, or say the table is empty. Remember that a ROLLBACK undoes everything since its BEGIN."},
		{TableState, "table_state/v3", "Trace the script. Final table contents? Rows in parentheses, or 'empty'."},
	},
}

// Variants returns the candidate templates for a task.
func Variants(task Task) []Template {
	return append([]Template{}, variants[task]...)
}

// Default returns the paper's published prompt for a task.
func Default(task Task) Template {
	vs := variants[task]
	if len(vs) == 0 {
		panic(fmt.Sprintf("prompt: unknown task %q", task))
	}
	return vs[0]
}

// Instruction returns the instruction part of a rendered prompt: the text
// before the embedded query, cut where ExtractQueryPair ("SQL 1:") or
// ExtractQuery (the last "SQL:", so a few-shot prompt's worked examples stay
// inside) begins reading SQL. A prompt without a marker is all instruction.
func Instruction(promptText string) string {
	cut := strings.LastIndex(promptText, MarkerQuery)
	if cut < 0 {
		cut = len(promptText)
	}
	if i := strings.Index(promptText[:cut], MarkerQuery1); i >= 0 {
		cut = i
	}
	return promptText[:cut]
}

// DetectTask identifies which task a rendered prompt belongs to. Simulated
// models use this the way a real model infers intent from instructions. Only
// the instruction is read, so the embedded SQL cannot change the task.
func DetectTask(promptText string) (Task, bool) {
	return DetectTaskLower(strings.ToLower(Instruction(promptText)))
}

// DetectTaskLower is DetectTask over an instruction the caller has already
// extracted and lowercased, for callers that read the instruction again.
func DetectTaskLower(lower string) (Task, bool) {
	switch {
	// Fill-in is checked before miss_token: both talk about missing tokens,
	// but only the fill prompts ask for the exact token back.
	case strings.Contains(lower, "exact missing token"):
		return FillToken, true
	case strings.Contains(lower, "missing word") || strings.Contains(lower, "token is missing") || strings.Contains(lower, "been deleted"):
		return MissToken, true
	case strings.Contains(lower, "equivalent") || strings.Contains(lower, "identical results") || strings.Contains(lower, "same results"):
		return QueryEquiv, true
	case strings.Contains(lower, "longer than usual") || strings.Contains(lower, "runtime cost") || strings.Contains(lower, "be slow"):
		return PerfPred, true
	case strings.Contains(lower, "describing this query") || strings.Contains(lower, "what this sql query returns") || strings.Contains(lower, "purpose of this query"):
		return QueryExp, true
	case strings.Contains(lower, "final contents") || strings.Contains(lower, "contain after running") || strings.Contains(lower, "final table contents"):
		return TableState, true
	case strings.Contains(lower, "syntax") || strings.Contains(lower, "query valid") || strings.Contains(lower, "semantic errors"):
		return SyntaxError, true
	default:
		return "", false
	}
}

// ExtractQuery pulls the embedded query out of a single-query prompt.
func ExtractQuery(promptText string) (string, bool) {
	idx := strings.LastIndex(promptText, MarkerQuery)
	if idx < 0 {
		return "", false
	}
	return strings.TrimSpace(promptText[idx+len(MarkerQuery):]), true
}

// ExtractQueryPair pulls both queries out of a pair prompt.
func ExtractQueryPair(promptText string) (string, string, bool) {
	i1 := strings.Index(promptText, MarkerQuery1)
	i2 := strings.Index(promptText, MarkerQuery2)
	if i1 < 0 || i2 < 0 || i2 <= i1 {
		return "", "", false
	}
	q1 := strings.TrimSpace(promptText[i1+len(MarkerQuery1) : i2])
	q2 := strings.TrimSpace(promptText[i2+len(MarkerQuery2):])
	return q1, q2, true
}
