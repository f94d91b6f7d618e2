package equiv

// Store-backed instances. Memory mode materializes one engine.DB per
// (seed, rows) and caches it forever; store mode instead shares ONE durable
// store across every seed. The schema's tables are created once (empty);
// each per-seed check loads that seed's generated rows inside a transaction,
// runs both queries over streaming heap scans, and rolls the transaction
// back, leaving the tables empty again for the next seed. Rollback restores
// before-images in the buffer pool and writes nothing to the WAL, so the
// heap files are reused across seeds instead of being rebuilt — the speedup
// is measured by BenchmarkStoreSeed{Rollback,Rebuild} and recorded in
// PERF.md.

import (
	"context"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sqlast"
	"repro/internal/store"
)

// openStore opens (or creates) the shared store and ensures every schema
// table exists, empty. Safe for concurrent use; the first caller does the
// work.
func (c *Checker) openStore() (*store.Store, error) {
	c.storeOnce.Do(func() {
		st, err := store.Open(c.StoreDir, store.Options{PoolPages: c.StorePoolPages})
		if err != nil {
			c.storeErr = err
			return
		}
		ses := store.NewSession(st)
		for _, t := range c.Schema.Tables() {
			if _, ok := st.Cols(t.Name); ok {
				continue // reopened directory: the table persists
			}
			cols := make([]engine.Col, len(t.Columns))
			for i, col := range t.Columns {
				cols[i] = engine.Col{Name: col.Name, Type: col.Type}
			}
			if err := ses.CreateTable(t.Name, cols); err != nil {
				st.Close()
				c.storeErr = fmt.Errorf("creating %s: %w", t.Name, err)
				return
			}
		}
		c.store = st
	})
	return c.store, c.storeErr
}

// checkSeedStore is the store-mode per-seed check: load the seed's rows in a
// transaction, query both sides through the session's streaming scans, roll
// back. The store is single-writer, so concurrent seeds serialize on Begin;
// verdicts are unaffected (each seed sees exactly its own rows).
func (c *Checker) checkSeedStore(ctx context.Context, seed int64, rows int, a, b *sqlast.SelectStmt) (bool, error) {
	st, err := c.openStore()
	if err != nil {
		return false, err
	}
	ses := store.NewSession(st)
	if err := ses.Begin(); err != nil {
		return false, err
	}
	defer func() {
		if ses.InTxn() {
			ses.Rollback()
		}
	}()
	for _, t := range c.Schema.Tables() {
		rel := datagen.GenTable(t, datagen.Config{Seed: seed, Rows: rows})
		if err := ses.Append(t.Name, rel.Rows); err != nil {
			return false, fmt.Errorf("loading %s: %w", t.Name, err)
		}
	}
	db := engine.NewDB(c.Schema)
	db.Source = ses
	e := engine.New(db)
	e.Parallel = c.Parallel
	defer func() { c.engineOps.Add(e.Ops()) }()
	ra, err := e.QueryCtx(ctx, a)
	if err != nil {
		return false, fmt.Errorf("left query failed: %w", err)
	}
	rb, err := e.QueryCtx(ctx, b)
	if err != nil {
		return false, fmt.Errorf("right query failed: %w", err)
	}
	ordered := len(a.OrderBy) > 0 && len(b.OrderBy) > 0
	return engine.EqualRelations(ra, rb, ordered), nil
}

// StoreStats reports the shared store's I/O counters (zero value in memory
// mode or before the first store-mode check).
func (c *Checker) StoreStats() store.Stats {
	if c.store == nil {
		return store.Stats{}
	}
	return c.store.Stats()
}

// Close releases the store backing store-mode instances. Memory-mode
// checkers need no cleanup; Close is then a no-op.
func (c *Checker) Close() error {
	if c.store != nil {
		return c.store.Close()
	}
	return nil
}
