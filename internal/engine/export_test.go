package engine

// NewReference returns an Engine that executes every query block on the raw
// BuildPlan lowering, skipping predicate pushdown: the exact reference the
// optimizer's differential tests compare the engine against.
func NewReference(db *DB) *Engine {
	e := New(db)
	e.reference = true
	return e
}
