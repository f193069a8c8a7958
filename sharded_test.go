package dsidx

import (
	"path/filepath"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/messi"
)

func TestShardedAppendSaveOpenRoundTrip(t *testing.T) {
	coll := Generate(Synthetic, 800, 64, 7)
	extra := Generate(SALD, 150, 64, 8)
	s, err := NewMESSI(coll, WithShards(3), WithShardPolicy(ShardByHash), WithMergeThreshold(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 100; i++ {
		pos, err := s.Append(extra.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if pos != 800+i {
			t.Fatalf("append %d landed at %d", i, pos)
		}
	}
	s.Flush()
	batch := make([]Series, 50)
	for i := range batch {
		batch[i] = extra.At(100 + i)
	}
	if _, err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	ist := s.IngestStats()
	if ist.Appended != 150 || ist.Merged != 100 || ist.Pending != 50 {
		t.Fatalf("ingest stats: %+v", ist)
	}

	path := filepath.Join(t.TempDir(), "sharded.dsidx")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadMESSI(path, coll)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Shards() != 3 || s2.Len() != s.Len() {
		t.Fatalf("reopened shards=%d len=%d", s2.Shards(), s2.Len())
	}
	// The appended series keep their global positions across the round trip.
	m, err := s2.Search(extra.At(120))
	if err != nil {
		t.Fatal(err)
	}
	if m.Pos != 920 || m.Distance != 0 {
		t.Fatalf("reopened self-query: %+v", m)
	}
	queries := GeneratePerturbedQueries(coll, 6, 0.05, 9)
	for i := 0; i < queries.Len(); i++ {
		a, err := s.Search(queries.At(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s2.Search(queries.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d across save: %+v != %+v", i, a, b)
		}
	}

	// Topology conflicts surface as errors.
	if _, err := LoadMESSI(path, coll, WithShards(2)); err == nil {
		t.Fatal("LoadMESSI accepted a conflicting shard count")
	}
	if _, err := LoadMESSI(path, coll, WithShardPolicy(ShardRoundRobin)); err == nil {
		t.Fatal("LoadMESSI accepted a conflicting policy")
	}
}

// TestShardedOpensLegacyMESSIFile loads a single-index (DSI1/DSL1) file —
// what MESSI.Save wrote before every index became a DSS1 manifest — as a
// 1-shard index with unchanged positions and answers.
func TestShardedOpensLegacyMESSIFile(t *testing.T) {
	coll := Generate(Synthetic, 500, 64, 17)
	plain, err := messi.Build(coll, core.Config{}, messi.Options{MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	extra := Generate(SALD, 40, 64, 18)
	for i := 0; i < extra.Len(); i++ {
		if _, err := plain.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "plain.dsidx")
	if err := writeFileAtomic(path, plain.Encode()); err != nil {
		t.Fatal(err)
	}

	s, err := LoadMESSI(path, coll)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Shards() != 1 || s.Len() != plain.Count() {
		t.Fatalf("legacy open: shards=%d len=%d, want 1/%d", s.Shards(), s.Len(), plain.Count())
	}
	queries := GeneratePerturbedQueries(coll, 6, 0.05, 19)
	queries.Append(extra.At(7))
	for i := 0; i < queries.Len(); i++ {
		r, _, err := plain.Search(queries.At(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Search(queries.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if a := matchOf(r); a != b {
			t.Fatalf("legacy query %d: %+v != %+v", i, a, b)
		}
	}
}
