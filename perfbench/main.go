// Command perfbench is the dsidx benchmark. It generates one workload's
// inputs from a seed, builds the index under test from them, drives it for
// a fixed time, checks a deterministic sample of the answers against the
// serial UCR scan outside the timed window, and prints one JSON line with
// every metric by name and unit.
//
// With --trace 0 the metrics are the end-to-end ones (latency percentiles,
// throughput, set-up time, memory, success rate). With --trace 1 the run
// alternates untraced and traced measurement, then replays sampled
// requests down the layer ladder and prints the per-layer metrics; its
// spans are written to .bench_build/spans/. Build and run it through
// run.sh from the repository root:
//
//	bash perfbench/run.sh --workload mem-exact --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dsidx/internal/vector"
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	out, err := run(*w, runConfig{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one workload and renders its output.
func run(w workload, c runConfig) (output, error) {
	if c.trace {
		c.tr = newTracer()
	}
	r := newReport()
	fmt.Printf("workload=%s seed=%d GOMAXPROCS=%d vector=%s\n", w.name, c.seed, runtime.GOMAXPROCS(0), vector.Impl())
	if err := w.run(c, r); err != nil {
		return output{}, err
	}
	if r.attempted == 0 {
		return output{}, fmt.Errorf("no operation was attempted")
	}
	r.set("success_rate", 1-float64(r.failed+r.wrong)/float64(r.attempted))
	if !c.trace {
		return r.output(endToEnd, false)
	}
	r.set("env.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	simd := 0.0
	if vector.Impl() != "scalar" {
		simd = 1
	}
	r.set("vector.simd", simd)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, c.seed))
	if err := c.tr.write(path); err != nil {
		return output{}, err
	}
	return r.output(perLayer, true)
}
