package main

import (
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Time bases. Every number is one or the other: host time is what the
// simulator costs, virtual time is what the modelled machine does and must
// repeat exactly for a fixed seed.
const (
	baseHost    = "host"
	baseVirtual = "virtual"
)

// metricDef names one metric of the ledger.
type metricDef struct {
	Name   string
	Unit   string
	Base   string
	Better string // "lower" or "higher"
	// Bound is the share of the old median by which the metric may worsen
	// before compare calls it a regression.
	Bound float64
	// Slack is an absolute amount, in the metric's unit, that a change must
	// also exceed: 50 ms of set-up, half a point of paper error.
	Slack float64
	// Driver marks the metrics BENCHMARK.json lists under end_to_end: host
	// time, defined and non-zero on every workload. The others are reported
	// by run and gated by compare, and appear in BENCHMARK.json under
	// per_layer (virtual time) or as the run's correct/failed verdict.
	Driver bool
}

// endToEnd is the ledger's thirteen end-to-end metrics. The host-time bounds
// are calibrated to the reference box (README.md, "Bounds"): three times the
// widest spread ten runs on ten seeds showed, and no more than the contract's
// cap of a quarter.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Base: baseHost, Better: "lower", Bound: 0.25, Slack: 0.050, Driver: true},
	{Name: "wall_s", Unit: "s", Base: baseHost, Better: "lower", Bound: 0.25, Driver: true},
	{Name: "cpu_s", Unit: "s", Base: baseHost, Better: "lower", Bound: 0.25, Driver: true},
	{Name: "ops_per_s", Unit: "ops/s", Base: baseHost, Better: "higher", Bound: 0.25, Driver: true},
	{Name: "allocs_per_op", Unit: "count", Base: baseHost, Better: "lower", Bound: 0.02, Driver: true},
	{Name: "bytes_per_op", Unit: "B", Base: baseHost, Better: "lower", Bound: 0.12, Driver: true},
	{Name: "rss_peak_mb", Unit: "MB", Base: baseHost, Better: "lower", Bound: 0.25, Driver: true},
	{Name: "sim_p50_us", Unit: "virt_us", Base: baseVirtual, Better: "lower", Bound: 0.125},
	{Name: "sim_p99_us", Unit: "virt_us", Base: baseVirtual, Better: "lower", Bound: 0.125},
	{Name: "sim_ctx_per_op", Unit: "count", Base: baseVirtual, Better: "lower", Bound: 0.02},
	{Name: "paper_err_pct", Unit: "%", Base: baseVirtual, Better: "lower", Slack: 0.5},
	{Name: "sim_nondet", Unit: "0/1", Base: baseVirtual, Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Base: baseVirtual, Better: "lower"},
}

// stat is one metric of one workload: the median of the timed reps with its
// quartiles and how many reps it summarises.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	Base   string  `json:"base"`
}

func newStat(def metricDef, vs []float64) stat {
	q1, med, q3 := quartiles(vs)
	return stat{Median: med, Q1: q1, Q3: q3, N: len(vs), Unit: def.Unit, Base: def.Base}
}

// layerValue is one per-layer metric of a traced run.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerRow is one row of a workload's layer table: host time of the traced
// run region attributed to a layer.
type layerRow struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
	// Exact rows partition the traced wall time; estimated rows (a [µ] or
	// [Δ] figure times a count) lie inside kernel.self_s and need not sum.
	Exact bool `json:"exact"`
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Workload string  `json:"workload"`
	Op       string  `json:"op"`
	Seed     uint64  `json:"seed"`
	Size     string  `json:"size"`
	Ops      uint64  `json:"ops_per_rep"`
	Reps     int     `json:"reps"`
	Seconds  float64 `json:"measured_seconds"`

	EndToEnd  map[string]stat `json:"end_to_end"`
	SimDigest string          `json:"sim_digest"`
	// Samples is how many observations sim_p50_us/sim_p99_us summarise.
	Samples   uint64   `json:"sim_samples,omitempty"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Notes are warnings that do not fail the run.
	Notes []string `json:"notes,omitempty"`

	RepValues []repStats   `json:"rep_values"`
	Cells     []cellResult `json:"cells,omitempty"`

	// The traced run's products.
	Traced      bool                  `json:"traced"`
	PerLayer    map[string]layerValue `json:"per_layer,omitempty"`
	LayerTable  []layerRow            `json:"layer_table,omitempty"`
	TracedWallS float64               `json:"traced_wall_s,omitempty"`
	Ladder      []ladderRow           `json:"ladder,omitempty"`
	// Layers is every folded span by name; TraceEvents the coarse spans as
	// Chrome trace events. layers.json and trace.json are cut from these.
	Layers      map[string]fold  `json:"layers,omitempty"`
	TraceEvents []map[string]any `json:"trace_events,omitempty"`
}

// environment is recorded in every result file.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Size       size   `json:"sizes"`
	Seed       uint64 `json:"seed"`
	When       string `json:"when"`
}

func currentEnvironment(sz size, seed uint64) environment {
	commit := "unknown" // a checkout without git still benchmarks
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Size: sz, Seed: seed, When: time.Now().UTC().Format(time.RFC3339)}
}

// resultFile is the ledger one run or trace command writes.
type resultFile struct {
	Env       environment      `json:"environment"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is always null: the benchmark measures, a later change claims.
	Claim any `json:"claim"`
}

// printResult prints every metric of one workload by name with its unit.
func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s  (op: %s, %d ops/rep, %d timed reps, seed %d, size %s)\n",
		r.Workload, r.Op, r.Ops, r.Reps, r.Seed, r.Size)
	fmt.Fprintf(w, "  %-16s %-8s %-8s %14s %14s %14s\n", "end-to-end", "unit", "time", "median", "q1", "q3")
	for _, def := range endToEnd {
		s, ok := r.EndToEnd[def.Name]
		if !ok {
			fmt.Fprintf(w, "  %-16s %-8s %-8s %14s   (not reported on this workload)\n", def.Name, def.Unit, def.Base, "-")
			continue
		}
		fmt.Fprintf(w, "  %-16s %-8s %-8s %14.6g %14.6g %14.6g\n", def.Name, s.Unit, s.Base, s.Median, s.Q1, s.Q3)
	}
	fmt.Fprintf(w, "  sim_digest       %s\n", r.SimDigest)
	if r.Samples > 0 {
		fmt.Fprintf(w, "  sim_samples      %d (%d beyond p99)\n", r.Samples, r.Samples/100)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	if len(r.Cells) > 0 {
		printCells(w, r.Cells)
	}
	if !r.Traced {
		return
	}
	fmt.Fprintf(w, "  %-34s %-8s %14s\n", "per-layer", "unit", "value")
	for _, def := range perLayer {
		fmt.Fprintf(w, "  %-34s %-8s %14.6g\n", def.Name, def.Unit, r.PerLayer[def.Name].Value)
	}
	fmt.Fprintf(w, "  layer table (host seconds of the traced run region, mean per traced rep; traced wall_s %.4f)\n", r.TracedWallS)
	var exact float64
	for _, row := range r.LayerTable {
		mark := "  ~ "
		if row.Exact {
			mark = "    "
			exact += row.Seconds
		}
		fmt.Fprintf(w, "  %s%-30s %12.6f s %6.1f%%\n", mark, row.Layer, row.Seconds, 100*row.Seconds/r.TracedWallS)
	}
	fmt.Fprintf(w, "      %-30s %12.6f s %6.1f%%  (~ rows are estimates inside kernel.self_s)\n",
		"sum of exact rows", exact, 100*exact/r.TracedWallS)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  NOTE: %s\n", n)
	}
	if len(r.Ladder) > 0 {
		printLadder(w, r.Ladder)
	}
}

func printLadder(w io.Writer, rows []ladderRow) {
	fmt.Fprintf(w, "  tier ladder (one ping-pong input, host ns and virtual µs per message)\n")
	fmt.Fprintf(w, "    %-14s %10s %12s %16s %10s\n", "rung", "ns/msg", "allocs/msg", "virt µs/wakeup", "ctx/msg")
	for _, r := range rows {
		fmt.Fprintf(w, "    %-14s %10.1f %12.4f %16.3f %10.3f\n", r.Rung, r.NsPerMsg, r.AllocsPerMsg, r.VirtUsPerWake, r.CtxPerMsg)
	}
}

func printCells(w io.Writer, cells []cellResult) {
	fmt.Fprintf(w, "  paper cells: %d reproduced, mean |ours-paper|/paper = %.2f%%\n", len(cells), paperErrPct(cells))
	fmt.Fprintf(w, "  known divergences (EXPERIMENTS.md), still counted above:\n")
	for _, n := range []int{1, 2, 3, 4, 5} {
		fmt.Fprintf(w, "    %d. %s\n", n, knownDivergences[n])
		for _, c := range cells {
			if c.Divergence == n {
				fmt.Fprintf(w, "         %s[%s,%s]: paper %g µs, ours %.1f µs (%.0f%% off)\n",
					c.Table, c.Row, c.Col, c.PaperUS, c.OursUS, c.ErrPct)
			}
		}
	}
}
