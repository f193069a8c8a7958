package dsidx_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dsidx"
	"dsidx/internal/storage"
)

// saveSmallMESSI builds and saves a small index over the given number of
// shards, returning the path and a query whose answer pins the decoded
// content.
func saveSmallMESSI(t *testing.T, shards int) (string, *dsidx.Collection, dsidx.Series, dsidx.Match) {
	t.Helper()
	coll := dsidx.Generate(dsidx.Synthetic, 600, 64, 23)
	idx, err := dsidx.NewMESSI(coll, dsidx.WithShards(shards), dsidx.WithLeafCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, 64, 23).At(0)
	want, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.dsi")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	return path, coll, q, want
}

// TestLoadRejectsChecksumMismatch flips one byte of a saved index, at one
// and at several shards: the load must fail with the typed corruption
// error, never decode a wrong index.
func TestLoadRejectsChecksumMismatch(t *testing.T) {
	for _, shards := range []int{1, 3} {
		path, coll, _, _ := saveSmallMESSI(t, shards)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = dsidx.LoadMESSI(path, coll)
		if err == nil {
			t.Fatalf("shards=%d: corrupted index loaded without error", shards)
		}
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("shards=%d: corruption surfaced untyped: %v", shards, err)
		}
	}
}

// TestLoadAcceptsLegacyFileWithoutTrailer strips the integrity trailer —
// the shape of every file saved before it existed — and the load must
// still succeed with identical answers.
func TestLoadAcceptsLegacyFileWithoutTrailer(t *testing.T) {
	path, coll, q, want := saveSmallMESSI(t, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := dsidx.LoadMESSI(path, coll)
	if err != nil {
		t.Fatalf("legacy trailer-less file failed to load: %v", err)
	}
	defer idx.Close()
	got, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("legacy load answered %+v, want %+v", got, want)
	}
}
