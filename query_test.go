package dsidx_test

// Public coverage for the single query entry point: Query answers every
// QueryKind exactly as its direct wrapper does, and a query over nothing
// visible answers with empty Matches — never a sentinel — on both
// backends.

import (
	"math"
	"testing"

	"dsidx"
)

// queryBackend is the method set both public index types share for these
// tests.
type queryBackend interface {
	Query(req dsidx.QueryRequest) dsidx.QueryResponse
	Search(q dsidx.Series) (dsidx.Match, error)
	SearchKNN(q dsidx.Series, k int) ([]dsidx.Match, error)
	SearchDTW(q dsidx.Series, window int) (dsidx.Match, error)
	SearchApproximate(q dsidx.Series) (dsidx.Match, error)
	SearchWindow(q dsidx.Series, n int) (dsidx.Match, error)
	DeleteRange(lo, hi int) (int, error)
	Close()
}

// backends builds a plain and a 3-shard index over coll.
func backends(t *testing.T, coll *dsidx.Collection) map[string]queryBackend {
	t.Helper()
	m, err := dsidx.NewMESSI(coll, dsidx.WithLeafCapacity(16), dsidx.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := dsidx.NewSharded(coll, dsidx.WithShards(3), dsidx.WithLeafCapacity(16), dsidx.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]queryBackend{"messi": m, "sharded": s}
}

func TestQueryMatchesWrappers(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 300, 64, 5)
	qs := dsidx.GeneratePerturbedQueries(coll, 3, 0.1, 6)
	for name, idx := range backends(t, coll) {
		defer idx.Close()
		for qi := 0; qi < qs.Len(); qi++ {
			q := qs.At(qi)
			one := func(m dsidx.Match, err error) ([]dsidx.Match, error) { return []dsidx.Match{m}, err }
			for _, c := range []struct {
				req     dsidx.QueryRequest
				wrapper func() ([]dsidx.Match, error)
			}{
				{dsidx.QueryRequest{Kind: dsidx.QueryNN}, func() ([]dsidx.Match, error) { return one(idx.Search(q)) }},
				{dsidx.QueryRequest{Kind: dsidx.QueryKNN, K: 4}, func() ([]dsidx.Match, error) { return idx.SearchKNN(q, 4) }},
				{dsidx.QueryRequest{Kind: dsidx.QueryDTW, Window: 3}, func() ([]dsidx.Match, error) { return one(idx.SearchDTW(q, 3)) }},
				{dsidx.QueryRequest{Kind: dsidx.QueryApprox}, func() ([]dsidx.Match, error) { return one(idx.SearchApproximate(q)) }},
				{dsidx.QueryRequest{Kind: dsidx.QueryWindowNN, LastN: 50}, func() ([]dsidx.Match, error) { return one(idx.SearchWindow(q, 50)) }},
			} {
				c.req.ID, c.req.Query = int64(qi), q
				resp := idx.Query(c.req)
				want, err := c.wrapper()
				if resp.Err != nil || err != nil {
					t.Fatalf("%s kind %d: Query err %v, wrapper err %v", name, c.req.Kind, resp.Err, err)
				}
				if resp.ID != c.req.ID || len(resp.Matches) != len(want) {
					t.Fatalf("%s kind %d: Query %+v, wrapper %+v", name, c.req.Kind, resp, want)
				}
				for i := range want {
					if resp.Matches[i] != want[i] {
						t.Fatalf("%s kind %d rank %d: Query %+v != wrapper %+v", name, c.req.Kind, i, resp.Matches[i], want[i])
					}
				}
			}
		}
	}
}

// checkNothingVisible asserts every kind answers empty Matches without an
// error through Query, and that the direct 1-NN wrappers answer with the
// documented sentinel.
func checkNothingVisible(t *testing.T, what string, idx queryBackend, q dsidx.Series, lastN int) {
	t.Helper()
	reqs := []dsidx.QueryRequest{{Kind: dsidx.QueryWindowNN, LastN: lastN}}
	if lastN == 0 {
		reqs = []dsidx.QueryRequest{
			{Kind: dsidx.QueryNN},
			{Kind: dsidx.QueryKNN, K: 3},
			{Kind: dsidx.QueryDTW, Window: 2},
			{Kind: dsidx.QueryApprox},
			{Kind: dsidx.QueryWindowNN, LastN: 10},
		}
	}
	for _, req := range reqs {
		req.Query = q
		if resp := idx.Query(req); resp.Err != nil || len(resp.Matches) != 0 {
			t.Fatalf("%s: kind %d answered %+v, want empty Matches", what, req.Kind, resp)
		}
	}
	sentinel := dsidx.Match{Pos: -1, Distance: math.Inf(1)}
	wrappers := map[string]func() (dsidx.Match, error){
		"SearchWindow": func() (dsidx.Match, error) { return idx.SearchWindow(q, max(lastN, 1)) },
	}
	if lastN == 0 {
		wrappers["Search"] = func() (dsidx.Match, error) { return idx.Search(q) }
		wrappers["SearchDTW"] = func() (dsidx.Match, error) { return idx.SearchDTW(q, 2) }
		wrappers["SearchApproximate"] = func() (dsidx.Match, error) { return idx.SearchApproximate(q) }
	}
	for name, w := range wrappers {
		if m, err := w(); err != nil || m != sentinel {
			t.Fatalf("%s: %s = %+v, %v; want the sentinel %+v", what, name, m, err, sentinel)
		}
	}
	if ms, err := idx.SearchKNN(q, 3); lastN == 0 && (err != nil || len(ms) != 0) {
		t.Fatalf("%s: SearchKNN = %+v, %v; want none", what, ms, err)
	}
}

func TestQueryNothingVisibleAnswersEmpty(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 200, 64, 8)
	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, 64, 9).At(0)

	// A window holding only deleted series, then every series deleted.
	for name, idx := range backends(t, coll) {
		defer idx.Close()
		if _, err := idx.DeleteRange(190, 200); err != nil {
			t.Fatal(err)
		}
		checkNothingVisible(t, name+" deleted window", idx, q, 5)
		if _, err := idx.DeleteRange(0, 190); err != nil {
			t.Fatal(err)
		}
		checkNothingVisible(t, name+" all deleted", idx, q, 0)
	}

	// Indexes built over nothing.
	for name, idx := range backends(t, dsidx.NewCollection(0, 64)) {
		defer idx.Close()
		checkNothingVisible(t, name+" empty", idx, q, 0)
	}
}
