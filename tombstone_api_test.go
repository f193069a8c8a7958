package dsidx_test

// Public-API coverage for the delete/TTL, sliding-window, and tenant
// surface at one and at several shards: every wrapper is exercised end to end, with
// answers cross-checked against the serial scan and the untenanted
// sibling (exact searches are deterministic, so both must agree).

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dsidx"
)

func checkDeleteWindowTenantAPI(t *testing.T, idx *dsidx.MESSI, coll *dsidx.Collection) {
	t.Helper()
	q := dsidx.GenerateQueries(dsidx.Synthetic, 1, coll.SeriesLen(), 11).At(0)
	base := coll.Len()

	// Delete the true nearest neighbor: no flavor may return it again.
	victim := ScanPos(coll, q)
	newly, err := idx.Delete(victim)
	if err != nil || !newly {
		t.Fatalf("Delete(%d) = %v, %v", victim, newly, err)
	}
	if newly, err := idx.Delete(victim); err != nil || newly {
		t.Fatalf("second Delete(%d) = %v, %v; want no-op", victim, newly, err)
	}
	m, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pos == victim {
		t.Fatalf("Search returned deleted position %d", victim)
	}
	if mw, err := idx.SearchWithWorkers(q, 2); err != nil || mw != m {
		t.Fatalf("SearchWithWorkers %+v, %v; want %+v", mw, err, m)
	}

	// Range delete around the victim; counts exclude the prior tombstone.
	lo, hi := victim-1, victim+2
	if lo < 0 {
		lo, hi = 0, 3
	}
	if hi > base {
		lo, hi = base-3, base
	}
	n, err := idx.DeleteRange(lo, hi)
	if err != nil || n != hi-lo-1 {
		t.Fatalf("DeleteRange(%d,%d) = %d, %v; want %d", lo, hi, n, err, hi-lo-1)
	}
	if _, err := idx.DeleteRange(5, idx.Len()+1); err == nil {
		t.Fatal("out-of-range DeleteRange accepted")
	}
	if got := idx.Tombstoned(); got != hi-lo {
		t.Fatalf("Tombstoned = %d, want %d", got, hi-lo)
	}
	if idx.Live()+idx.Tombstoned() != idx.Len() {
		t.Fatalf("Live %d + Tombstoned %d != Len %d", idx.Live(), idx.Tombstoned(), idx.Len())
	}

	// TTL lifecycle on appended series against a logical clock.
	extra := dsidx.Generate(dsidx.Synthetic, 3, coll.SeriesLen(), 77)
	pos, err := idx.AppendWithTTL(extra.At(0), 100)
	if err != nil || pos != base {
		t.Fatalf("AppendWithTTL pos %d, %v; want %d", pos, err, base)
	}
	if _, err := idx.Append(extra.At(1)); err != nil {
		t.Fatal(err)
	}
	if err := idx.SetTTL(pos, 200); err != nil {
		t.Fatal(err)
	}
	if err := idx.SetTTL(-1, 5); err == nil {
		t.Fatal("SetTTL(-1) accepted")
	}
	if n := idx.ExpireBefore(199); n != 0 {
		t.Fatalf("expired %d before the replaced deadline", n)
	}
	if n := idx.ExpireBefore(200); n != 1 {
		t.Fatalf("expired %d at the deadline, want 1", n)
	}

	// Window queries: a window covering everything equals full search; a
	// window of 1 returns the last landed live series; n <= 0 errors.
	if _, err := idx.SearchWindow(q, 0); err == nil {
		t.Fatal("SearchWindow(0) accepted")
	}
	wide, err := idx.SearchWindow(q, 10*idx.Len())
	if err != nil {
		t.Fatal(err)
	}
	full, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if wide != full {
		t.Fatalf("wide window %+v != full search %+v", wide, full)
	}
	last, err := idx.SearchWindow(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if last.Pos != base+1 {
		t.Fatalf("window 1 answered %d, want last live %d", last.Pos, base+1)
	}

	// Tenanted requests answer identically to their untenanted siblings and
	// show up in TenantStats under their ID.
	tenanted := func(req dsidx.QueryRequest) []dsidx.Match {
		t.Helper()
		req.Query, req.Tenant = q, "alpha"
		resp := idx.Query(req)
		if resp.Err != nil {
			t.Fatalf("tenanted %v request: %v", req.Kind, resp.Err)
		}
		return resp.Matches
	}
	if tm := tenanted(dsidx.QueryRequest{}); len(tm) != 1 || tm[0] != full {
		t.Fatalf("tenanted NN %+v; want %+v", tm, full)
	}
	kms := tenanted(dsidx.QueryRequest{Kind: dsidx.QueryKNN, K: 3})
	if len(kms) != 3 || kms[0] != full {
		t.Fatalf("tenanted k-NN %+v", kms)
	}
	for _, km := range kms {
		if km.Pos >= lo && km.Pos < hi {
			t.Fatalf("k-NN returned deleted position %d", km.Pos)
		}
	}
	tenanted(dsidx.QueryRequest{Kind: dsidx.QueryDTW, Window: 4})
	for _, am := range tenanted(dsidx.QueryRequest{Kind: dsidx.QueryApprox}) {
		if am.Pos >= lo && am.Pos < hi {
			t.Fatalf("approximate returned deleted position %d", am.Pos)
		}
	}
	if wm := tenanted(dsidx.QueryRequest{Kind: dsidx.QueryWindowNN, LastN: 10 * idx.Len()}); len(wm) != 1 || wm[0] != full {
		t.Fatalf("tenanted window %+v; want %+v", wm, full)
	}
	ts := idx.TenantStats()
	if len(ts) != 1 || ts[0].Tenant != "alpha" || ts[0].Queries != 5 {
		t.Fatalf("TenantStats %+v; want alpha with 5 queries", ts)
	}

	// Compaction drops the tombstoned entries without changing answers.
	idx.Compact()
	after, err := idx.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if after != full {
		t.Fatalf("Compact changed the answer: %+v != %+v", after, full)
	}

	// Serve speaks the same surface: a tenanted window query, a plain NN,
	// and two malformed requests that must error rather than misanswer.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := make(chan dsidx.QueryRequest, 4)
	in <- dsidx.QueryRequest{ID: 1, Query: q, Kind: dsidx.QueryWindowNN, LastN: 10 * idx.Len(), Tenant: "beta"}
	in <- dsidx.QueryRequest{ID: 2, Query: q}
	in <- dsidx.QueryRequest{ID: 3, Query: q, Kind: dsidx.QueryKNN} // K missing
	in <- dsidx.QueryRequest{ID: 4, Query: q, Kind: dsidx.QueryKind(99)}
	close(in)
	got := map[int64]dsidx.QueryResponse{}
	for resp := range idx.Serve(ctx, in) {
		got[resp.ID] = resp
	}
	if r := got[1]; r.Err != nil || len(r.Matches) != 1 || r.Matches[0] != full {
		t.Fatalf("served window query: %+v", r)
	}
	if r := got[2]; r.Err != nil || len(r.Matches) != 1 || r.Matches[0] != full {
		t.Fatalf("served NN query: %+v", r)
	}
	if got[3].Err == nil || len(got[3].Matches) != 0 {
		t.Fatalf("K-less KNN request answered: %+v", got[3])
	}
	if got[4].Err == nil {
		t.Fatalf("unknown kind answered: %+v", got[4])
	}
	ts = idx.TenantStats()
	if len(ts) != 2 || ts[0].Tenant != "alpha" || ts[1].Tenant != "beta" {
		t.Fatalf("TenantStats after Serve: %+v", ts)
	}
}

// ScanPos returns the serial scan's nearest position.
func ScanPos(coll *dsidx.Collection, q dsidx.Series) int {
	return dsidx.ScanNearest(coll, q).Pos
}

func TestDeleteWindowTenantAPIMESSI(t *testing.T) {
	coll := dsidx.Generate(dsidx.Synthetic, 400, 64, 11)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, err := dsidx.NewMESSI(coll, dsidx.WithShards(shards),
				dsidx.WithLeafCapacity(32), dsidx.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			checkDeleteWindowTenantAPI(t, idx, coll)
			h := idx.Health()
			if h.Tombstoned != idx.Tombstoned() || h.Live != idx.Live() {
				t.Fatalf("Health live/tombstoned %+v disagree with %d/%d", h, idx.Live(), idx.Tombstoned())
			}
			if len(h.Shards) != shards || len(h.Quarantined) != 0 {
				t.Fatalf("Health shards %+v, quarantined %v; want %d serving", h.Shards, h.Quarantined, shards)
			}
		})
	}
}
