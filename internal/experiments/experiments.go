// Package experiments reproduces every figure of the paper's evaluation
// (§IV, Figures 4-12) plus ablations of its design choices. Each
// experiment builds its workload, runs the competing systems, and returns a
// Table whose rows/series match what the paper plots; EXPERIMENTS.md
// records the paper-vs-measured comparison.
//
// Scaling notes: collections are scaled
// from 100M series to the configured count (default 200K), simulated
// devices stand in for the RAID0-HDD/SSD testbed, and query workloads for
// the on-disk figures use perturbed dataset members so that the *pruning
// regime* (the fraction of the collection surviving lower-bound filtering)
// matches the paper's dense 100GB collections rather than the sparse
// scaled-down ones.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config holds the scaling knobs shared by all experiments.
type Config struct {
	// SeriesCount is the collection size (default 200_000; the paper uses
	// 100-200M).
	SeriesCount int
	// QueryCount is the number of queries averaged per measurement
	// (default 5; 3 for the slow on-disk figures).
	QueryCount int
	// Seed fixes all generators.
	Seed int64
	// MaxCores caps the core-count axis (default 24, the paper's machine).
	MaxCores int
	// InFlightAxis lists the concurrent-query levels of the multi-query
	// throughput experiment (default 1, 4, 16).
	InFlightAxis []int
	// AppendRates lists the live-append rates (series/s) of the ingestion
	// experiment (default 0, 1000, 10000; 0 is the query-only baseline).
	AppendRates []int
	// ShardAxis lists the shard counts of the sharded scatter-gather
	// experiment (default 1, 2, 4; 1 is the unsharded baseline).
	ShardAxis []int
	// DeleteRate is the fraction of the collection tombstoned (evenly
	// spaced, uncompacted) before the query benchmark runs, measuring the
	// tombstone-filtered search path. 0 (the default) benchmarks the
	// delete-free hot path; values are clamped to [0, 0.9].
	DeleteRate float64
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.SeriesCount <= 0 {
		c.SeriesCount = 200_000
	}
	if c.QueryCount <= 0 {
		c.QueryCount = 5
	}
	if c.Seed == 0 {
		c.Seed = 2020
	}
	if c.MaxCores <= 0 {
		c.MaxCores = 24
	}
	if len(c.InFlightAxis) == 0 {
		c.InFlightAxis = []int{1, 4, 16}
	}
	if len(c.AppendRates) == 0 {
		c.AppendRates = []int{0, 1000, 10000}
	}
	if len(c.ShardAxis) == 0 {
		c.ShardAxis = []int{1, 2, 4}
	}
	if c.DeleteRate < 0 {
		c.DeleteRate = 0
	}
	if c.DeleteRate > 0.9 {
		c.DeleteRate = 0.9
	}
	return c
}

// coreAxis clips the paper's core counts to the configured maximum.
func (c Config) coreAxis(counts ...int) []int {
	out := make([]int, 0, len(counts))
	for _, n := range counts {
		if n <= c.MaxCores {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = append(out, c.MaxCores)
	}
	return out
}

// Row is one labeled series of measurements.
type Row struct {
	Label  string
	Values []float64
}

// Table is an experiment result shaped like the paper's figure.
type Table struct {
	ID      string
	Title   string
	Unit    string
	Columns []string
	Rows    []Row
	Notes   []string
}

// AddRow appends a labeled row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Note appends a free-text annotation printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&sb, " [%s]", t.Unit)
	}
	sb.WriteByte('\n')

	labelW := 5
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = max(len(c), 10)
	}
	fmt.Fprintf(&sb, "  %-*s", labelW, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "  %*s", colW[i], c)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "  %-*s", labelW, r.Label)
		for i, v := range r.Values {
			w := 10
			if i < len(colW) {
				w = colW[i]
			}
			fmt.Fprintf(&sb, "  %*s", w, formatValue(v))
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// All lists every reproducible figure and ablation, in paper order.
var All = []Experiment{
	{"fig4", "ParIS/ParIS+ index creation vs cores, Read/Write/CPU breakdown (HDD)", Fig4},
	{"fig5", "MESSI index creation vs cores, phase breakdown (in-memory)", Fig5},
	{"fig6", "Index creation across datasets: ADS+ vs ParIS vs ParIS+ (HDD)", Fig6},
	{"fig7", "In-memory index creation across datasets: ParIS vs MESSI", Fig7},
	{"fig8", "ParIS+ exact query answering vs cores, HDD vs SSD", Fig8},
	{"fig9", "In-memory exact query answering vs cores: UCR-p vs ParIS vs MESSI", Fig9},
	{"fig10", "Exact query answering across datasets on HDD: UCR vs ADS+ vs ParIS+", Fig10},
	{"fig11", "Exact query answering across datasets on SSD: UCR vs ADS+ vs ParIS+", Fig11},
	{"fig12", "In-memory exact query answering across datasets: UCR-p vs ParIS vs MESSI", Fig12},
	{"ablation-buffers", "MESSI buffer partitioning vs single locked buffers", AblationBufferPartitioning},
	{"ablation-kernels", "Vectorized vs scalar distance kernels", AblationVectorKernels},
	{"ablation-leafcap", "MESSI build/query tradeoff vs leaf capacity", AblationLeafCapacity},
	{"ablation-hardness", "Pruning power vs query difficulty (eps sweep)", AblationQueryHardness},
	{"concurrent", "MESSI multi-query throughput vs in-flight queries (shared pool)", ConcurrentQPS},
	{"ingest", "MESSI query throughput under live appends (delta buffer + background merge)", IngestThroughput},
	{"sharded", "Sharded scatter-gather vs shard count (shared pool, shared BSF)", ShardedSweep},
	{"mem", "Resident bytes per series: flat vs sharded build (zero-copy views)", MemResidency},
	{"outofcore", "Out-of-core tiered shards: cold-tier query latency, hit rate and residency vs cache budget", OutOfCore},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	out := make([]string, len(All))
	for i, e := range All {
		out[i] = e.ID
	}
	return out
}

// sortedCopy returns a sorted copy of xs (used for medians in ablations).
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
