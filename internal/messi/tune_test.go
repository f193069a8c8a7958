package messi

import (
	"strings"
	"testing"

	"dsidx/internal/core"
	"dsidx/internal/gen"
	"dsidx/internal/metrics"
)

// newTuneIndex builds a small index with a known knob configuration
// (ProbeLeaves 2, MergeThreshold 1024) so retune targets are exact.
func newTuneIndex(t *testing.T, autoTune bool) *Index {
	t.Helper()
	base := gen.Generator{Kind: gen.Synthetic, Length: 32, Seed: 91}.Collection(300)
	ix, err := Build(base, core.Config{LeafCapacity: 32},
		Options{MergeThreshold: 1024, ProbeLeaves: 2, AutoTune: autoTune})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	return ix
}

// runWindow drives exactly one tuneWindow of traffic with the given
// query/append mix (queries+appends must equal tuneWindow), so the retune
// at the window boundary classifies precisely this mix.
func runWindow(t *testing.T, ix *Index, queries, appends int) {
	t.Helper()
	if queries+appends != tuneWindow {
		t.Fatalf("window mix %d+%d != %d", queries, appends, tuneWindow)
	}
	q := gen.Generator{Kind: gen.Synthetic, Length: 32, Seed: 92}.Collection(1).At(0)
	extra := gen.Generator{Kind: gen.Synthetic, Length: 32, Seed: 93}.Collection(appends)
	for i := 0; i < queries; i++ {
		if _, _, err := ix.Search(q, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < appends; i++ {
		if _, err := ix.Append(extra.At(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAutoTuneMovesKnobsWithWorkloadMix(t *testing.T) {
	ix := newTuneIndex(t, true)

	// Query-heavy window: probe up, merge threshold down.
	runWindow(t, ix, tuneWindow, 0)
	tu := ix.Tuning()
	if !tu.AutoTune || tu.ProbeLeaves != 4 || tu.MergeThreshold != 256 {
		t.Fatalf("query-heavy tuning: %+v", tu)
	}
	if tu.Adjustments == 0 {
		t.Fatal("query-heavy retune recorded no adjustments")
	}

	// Append-heavy window: probe to the floor, merge threshold up.
	runWindow(t, ix, 0, tuneWindow)
	tu = ix.Tuning()
	if tu.ProbeLeaves != 1 || tu.MergeThreshold != 4096 {
		t.Fatalf("append-heavy tuning: %+v", tu)
	}

	// Mixed window: both knobs return to the configured values.
	runWindow(t, ix, tuneWindow/2, tuneWindow/2)
	tu = ix.Tuning()
	if tu.ProbeLeaves != 2 || tu.MergeThreshold != 1024 {
		t.Fatalf("mixed tuning did not restore configuration: %+v", tu)
	}
}

func TestTuningInertWithoutAutoTune(t *testing.T) {
	ix := newTuneIndex(t, false)
	runWindow(t, ix, tuneWindow, 0)
	tu := ix.Tuning()
	if tu.AutoTune || tu.ProbeLeaves != 2 || tu.MergeThreshold != 1024 || tu.Adjustments != 0 {
		t.Fatalf("knobs moved without AutoTune: %+v", tu)
	}
}

func TestRegistryRendersIngestAndTuningFamilies(t *testing.T) {
	ix := newTuneIndex(t, true)
	r := metrics.NewRegistry()
	ix.eng.RegisterMetrics(r)
	ix.RegisterMetrics(r)
	runWindow(t, ix, tuneWindow, 0)
	text := r.Text()
	for _, want := range []string{
		"dsidx_engine_workers", "dsidx_ingest_appended_total", "dsidx_ingest_pending",
		"dsidx_ingest_merge_threshold", "dsidx_index_queries_total",
		"dsidx_index_query_seconds_bucket", "dsidx_tuning_autotune 1",
		"dsidx_tuning_probe_leaves 4", "dsidx_tuning_adjustments_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
