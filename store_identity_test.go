package repro_test

// Acceptance test for the durable storage engine's read path: a dataset
// materially larger than the buffer pool, queried through streaming heap
// scans, must produce results identical to the in-memory engine — ordered,
// at intra-query parallelism 1 and 8, with and without the plan optimizer.
// A second test pins the benchmark build: persisting the state task's oracle
// stores (-store-dir) with a tiny pool changes no artifact byte.

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/sqlparse"
	"repro/internal/store"
)

var identityQueries = []string{
	"SELECT plate , mjd FROM SpecObj WHERE z > 0.5 AND zwarning = 0",
	"SELECT class , COUNT( * ) , AVG( z ) FROM SpecObj GROUP BY class ORDER BY class",
	"SELECT s.plate , p.ra FROM SpecObj AS s JOIN PhotoObj AS p ON s.bestobjid = p.objid WHERE p.ra > 90",
	"SELECT DISTINCT type FROM PhotoObj WHERE clean = 1",
	"SELECT plate FROM SpecObj WHERE bestobjid IN ( SELECT objid FROM PhotoObj WHERE ra > 180 )",
	"SELECT objid , r FROM PhotoObj WHERE r < 20 ORDER BY r , objid",
	"SELECT plate FROM PlateX WHERE plate IN ( SELECT plate FROM SpecObj WHERE z > 1.0 )",
	"SELECT type , MAX( psfmag_r ) FROM PhotoObj GROUP BY type",
}

func TestStoreBackedQueriesMatchInMemory(t *testing.T) {
	schema := catalog.SDSS()
	const rows = 300 // PhotoObj alone spans dozens of 4 KiB pages
	mem := datagen.Instance(schema, datagen.Config{Seed: 7, Rows: rows})

	st, err := store.Open(t.TempDir(), store.Options{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ses := store.NewSession(st)
	for _, tab := range schema.Tables() {
		rel, ok := mem.Table(tab.Name)
		if !ok {
			t.Fatalf("memory instance is missing %s", tab.Name)
		}
		if err := ses.CreateTable(tab.Name, rel.Cols); err != nil {
			t.Fatal(err)
		}
		if err := ses.Append(tab.Name, rel.Rows); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.Stats().PagesWritten; n <= 8 {
		t.Fatalf("dataset spans only %d written pages — not larger than the 4-page pool", n)
	}

	sdb := engine.NewDB(schema)
	sdb.Source = st
	for _, sql := range identityQueries {
		sel, err := sqlparse.ParseSelect(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		me := engine.New(mem)
		want, err := me.Query(sel)
		if err != nil {
			t.Fatalf("in-memory query failed: %s: %v", sql, err)
		}
		for _, parallel := range []int{1, 8} {
			e := engine.New(sdb)
			e.Parallel = parallel
			got, err := e.Query(sel)
			if err != nil {
				t.Fatalf("store query failed (parallel=%d): %s: %v", parallel, sql, err)
			}
			if !engine.EqualRelations(want, got, true) {
				t.Errorf("store results diverge from memory (parallel=%d): %s", parallel, sql)
			}
		}
	}
}

// Persisting the state oracle stores on disk — with a pool small enough to
// force eviction mid-build — must not change a single artifact, at build
// parallelism 1 and 8.
func TestStoreDirBuildByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("three benchmark builds")
	}
	ref, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 8} {
		b, err := core.Build(core.BuildConfig{
			Seed:           1,
			Parallel:       parallel,
			StoreDir:       t.TempDir(),
			StorePoolPages: 2,
		})
		if err != nil {
			t.Fatalf("store-dir build (parallel=%d): %v", parallel, err)
		}
		if !reflect.DeepEqual(ref.State, b.State) {
			t.Errorf("parallel=%d: state examples diverge between temp-store and store-dir builds", parallel)
		}
		if !reflect.DeepEqual(ref.Workloads, b.Workloads) {
			t.Errorf("parallel=%d: workloads diverge under -store-dir", parallel)
		}
		if !reflect.DeepEqual(ref.Syntax, b.Syntax) {
			t.Errorf("parallel=%d: syntax examples diverge under -store-dir", parallel)
		}
		// Every script's commits must have reached the WAL; pages may never
		// be written back (each script's table is dropped right after its
		// contents are read, invalidating the frames).
		if b.StoreStats.WALRecords == 0 || b.StoreStats.WALBytes == 0 {
			t.Errorf("parallel=%d: store-dir build logged nothing (stats %+v)", parallel, b.StoreStats)
		}
	}
}
