package dsidx

import (
	"context"
	"fmt"
	"sync"

	"dsidx/internal/core"
	"dsidx/internal/messi"
)

// QueryKind selects the search flavor of a QueryRequest.
type QueryKind int

const (
	// QueryNN is an exact 1-NN Euclidean search (the Search method).
	QueryNN QueryKind = iota
	// QueryKNN is an exact k-NN Euclidean search; set QueryRequest.K.
	QueryKNN
	// QueryDTW is an exact 1-NN DTW search; set QueryRequest.Window.
	QueryDTW
	// QueryApprox is the microsecond approximate search.
	QueryApprox
	// QueryWindowNN is an exact 1-NN search over the most recent LastN
	// landed series (the SearchWindow method); set QueryRequest.LastN.
	QueryWindowNN
)

// QueryRequest is one query submitted to Serve.
type QueryRequest struct {
	// ID is echoed in the response, matching answers to requests (responses
	// arrive in completion order, not submission order).
	ID int64
	// Query is the query series; its length must match the index.
	Query Series
	// Kind selects the search flavor (default QueryNN).
	Kind QueryKind
	// K is the neighbor count for QueryKNN (ignored otherwise).
	K int
	// Window is the Sakoe-Chiba half-width for QueryDTW (ignored otherwise).
	Window int
	// LastN is the window size for QueryWindowNN (ignored otherwise).
	LastN int
	// Tenant is the request's opaque tenant ID ("" means untenanted): its
	// admission queues on the tenant's fair share of the in-flight budget,
	// its execution on the tenant's slice of the worker pool, and the
	// dsidx_tenant_* metric families account it under this ID.
	Tenant string
}

// QueryResponse answers one QueryRequest.
type QueryResponse struct {
	// ID echoes the request's ID.
	ID int64
	// Matches holds the answer in ascending distance order: one match for
	// QueryNN/QueryDTW/QueryApprox/QueryWindowNN, up to K for QueryKNN, and
	// none when nothing visible matches or Err is set.
	Matches []Match
	// Err reports a per-query failure (e.g. wrong query length).
	Err error
}

// serve is the serving loop behind MESSI.Serve: it answers requests from in until in closes or ctx is canceled, then
// closes the returned channel, admitting at most maxInFlight requests at a
// time onto the index's worker pool.
//
// Every request dequeued from in produces exactly one QueryResponse —
// answered, or carrying Err when cancellation preempted it — so a caller
// that counts its accepted submissions can balance the books after a
// shutdown. The caller must drain the returned channel until it closes;
// its buffer only absorbs the responses in flight at cancellation, it is
// not a substitute for reading.
func serve(ctx context.Context, in <-chan QueryRequest, ix *MESSI) <-chan QueryResponse {
	consumers := ix.inner.MaxInFlight()
	// One buffer slot per consumer: a consumer holding a computed (or
	// error) response at cancellation time can always deposit it and
	// exit, even if the reader drains the channel only after the fact.
	out := make(chan QueryResponse, consumers)
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-ctx.Done():
						return
					case req, ok := <-in:
						if !ok {
							return
						}
						// The request is dequeued: from here on it must be
						// answered unconditionally. Racing the sends below
						// against ctx.Done() would silently discard a
						// dequeued request about half the time when
						// cancellation and a ready reader are both
						// selectable.
						//
						// Cancellation-aware admission: a canceled server
						// must not wait behind other traffic for a slot, but
						// the preempted request still gets its response,
						// with Err set.
						release, err := ix.inner.AdmitTenantContext(ctx, req.Tenant)
						if err != nil {
							out <- QueryResponse{ID: req.ID, Err: err}
							return
						}
						resp := answer(ix, req)
						release()
						out <- resp
					}
				}
			}()
		}
		wg.Wait()
	}()
	return out
}

// answer is the single conversion from a public QueryRequest to the
// engine's messi.Request, and runs it. A failed or empty answer leaves
// Matches empty: responses never carry a sentinel answer.
func answer(ix *MESSI, req QueryRequest) QueryResponse {
	resp := QueryResponse{ID: req.ID}
	r := messi.Request{Tenant: req.Tenant}
	switch req.Kind {
	case QueryNN:
	case QueryKNN:
		if req.K <= 0 {
			// Surface the malformed request instead of a silent empty
			// answer (SearchKNN treats k<=0 as a no-op by contract).
			resp.Err = fmt.Errorf("dsidx: QueryKNN request %d needs K > 0, got %d", req.ID, req.K)
			return resp
		}
		r.Kind, r.K = messi.KNN, req.K
	case QueryDTW:
		r.Kind, r.Band = messi.DTW, req.Window
	case QueryApprox:
		r.Kind = messi.Approx
	case QueryWindowNN:
		if req.LastN <= 0 {
			resp.Err = fmt.Errorf("dsidx: QueryWindowNN request %d needs LastN > 0, got %d", req.ID, req.LastN)
			return resp
		}
		r.LastN = req.LastN
	default:
		// An unrecognized kind must not silently run some other search.
		resp.Err = fmt.Errorf("dsidx: request %d has unknown QueryKind %d", req.ID, req.Kind)
		return resp
	}
	rs, _, err := ix.inner.Query(req.Query, r)
	if err != nil {
		resp.Err = err
		return resp
	}
	resp.Matches = matchesOf(rs)
	return resp
}

// single unwraps a one-match response for the direct Search wrappers, which
// answer "nothing visible" with the sentinel Match{Pos: -1, Distance: +Inf}.
func single(resp QueryResponse) (Match, error) {
	if len(resp.Matches) == 0 {
		return matchOf(core.NoResult()), resp.Err
	}
	return resp.Matches[0], resp.Err
}
