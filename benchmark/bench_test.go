package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Everything here runs at the smoke size so the whole file stays well under
// ten seconds of tier-1 time.
var smoke = sizes["smoke"]

// benchmarkJSON is the contract file at the root of the repo.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program prints from: a metric renamed in one place and not the other would
// make the driver refuse every later run.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if got, want := strings.Join(bj.Command, " "), "bash benchmark/run.sh"; got != want {
		t.Errorf("command %q, want %q", got, want)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}

	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}

	var driver []metricDef
	for _, def := range endToEnd {
		if !name.MatchString(def.Name) {
			t.Errorf("end-to-end metric %q: bad name", def.Name)
		}
		if def.Driver {
			driver = append(driver, def)
		}
	}
	if len(bj.EndToEnd) != len(driver) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d driver metrics in the program", len(bj.EndToEnd), len(driver))
	}
	for i, def := range driver {
		got := bj.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
		if !unit.MatchString(def.Unit) || def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("end_to_end %q: unit %q or bound %v outside the contract", def.Name, def.Unit, def.Bound)
		}
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, def := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
		if !name.MatchString(def.Name) || !unit.MatchString(def.Unit) || seen[def.Name] {
			t.Errorf("per_layer %q: bad or repeated name, or bad unit %q", def.Name, def.Unit)
		}
		seen[def.Name] = true
	}
}

// TestDigests checks, for every workload, that the same seed simulates
// identically, that the seed reaches the input, that the decorators of the
// traced run leave the simulation alone, and that every output check passes.
func TestDigests(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.Name, func(t *testing.T) {
			a := runRep(w.New(1, smoke), nil).out
			b := runRep(w.New(1, smoke), nil).out
			other := runRep(w.New(2, smoke), nil).out
			traced := runRep(w.New(1, smoke), newTracer()).out
			for _, o := range []outcome{a, other, traced} {
				if o.Failed != 0 || len(o.Problems) != 0 || o.Ops == 0 {
					t.Errorf("output checks: %d of %d ops failed: %v", o.Failed, o.Ops, o.Problems)
				}
			}
			if a.Digest != b.Digest {
				t.Errorf("seed 1 twice: digests %016x and %016x", a.Digest, b.Digest)
			}
			if traced.Digest != a.Digest {
				t.Errorf("traced digest %016x, untraced %016x", traced.Digest, a.Digest)
			}
			// paper_quick's experiments fix their own inputs.
			if w.Name != "paper_quick" && other.Digest == a.Digest {
				t.Errorf("seeds 1 and 2 gave the same digest %016x", a.Digest)
			}
		})
	}
}

// TestRunProducesEveryNamedMetric runs one untraced and one traced workload
// end to end and checks the driver's line against the metric tables.
func TestRunProducesEveryNamedMetric(t *testing.T) {
	w, _ := findWorkload("pipe_module")
	for _, trace := range []bool{false, true} {
		res, err := runWorkload(w, options{seed: 1, size: "smoke", trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || len(res.Problems) != 0 {
			t.Fatalf("trace=%v: output checks failed: %v", trace, res.Problems)
		}
		var line bytes.Buffer
		if err := printDriverLine(&line, res); err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct   bool                  `json:"correct"`
			Attempted uint64                `json:"attempted"`
			Failed    uint64                `json:"failed"`
			Metrics   map[string]layerValue `json:"metrics"`
		}
		if err := json.Unmarshal(line.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
			t.Errorf("trace=%v: verdict %+v", trace, out)
		}
		want := make(map[string]string)
		if trace {
			for _, def := range perLayer {
				want[def.Name] = def.Unit
			}
		} else {
			for _, def := range endToEnd {
				if def.Driver {
					want[def.Name] = def.Unit
				}
			}
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics on the line, want %d", trace, len(out.Metrics), len(want))
		}
		for name, unit := range want {
			if got, ok := out.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("trace=%v: metric %s: got %+v, want unit %s", trace, name, got, unit)
			}
		}
		if !trace {
			for name, v := range out.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the driver needs it above 0", name, v.Value)
				}
			}
		}
	}
}

// handMade is a result file with one workload whose host-time metrics all
// have the given median and a 1% interquartile range.
func handMade(median float64) *resultFile {
	e2e := make(map[string]stat)
	for _, def := range endToEnd {
		if def.Base == baseHost {
			e2e[def.Name] = stat{Median: median, Q1: median * 0.995, Q3: median * 1.005, N: 9, Unit: def.Unit, Base: def.Base}
		}
	}
	e2e["fail_ratio"] = stat{N: 1}
	return &resultFile{Workloads: []workloadResult{{Workload: "w", EndToEnd: e2e, SimDigest: "0"}}}
}

func TestCompare(t *testing.T) {
	base := handMade(10)
	var out bytes.Buffer
	if worse, unresolved := compare(&out, base, base); worse != 0 || unresolved != 0 {
		t.Errorf("a file against itself: %d worse, %d unresolved\n%s", worse, unresolved, out.String())
	}
	if strings.Contains(out.String(), verdictBetter) || !strings.Contains(out.String(), verdictSame) {
		t.Errorf("a file against itself is not all same:\n%s", out.String())
	}

	// 40% slower, past every host-time bound: the six lower-is-better
	// metrics are worse and ops_per_s (higher is better) reads as better.
	out.Reset()
	worse, _ := compare(&out, base, handMade(14))
	if worse != 6 || !strings.Contains(out.String(), verdictBetter) {
		t.Errorf("a 40%% slowdown: %d rows worse, want 6\n%s", worse, out.String())
	}
	// 20% slower is inside the 25% bound of the times and outside the 2% and
	// 12% bounds of allocations and bytes.
	if worse, _ := compare(&out, base, handMade(12)); worse != 2 {
		t.Errorf("a 20%% slowdown: %d rows worse, want 2", worse)
	}

	// A median uncertain by more than the bound cannot resolve a change: 9
	// reps with an interquartile range of 10 leave 10/3 > 2.5.
	noisy := handMade(10)
	s := noisy.Workloads[0].EndToEnd["wall_s"]
	s.Q1, s.Q3 = 5, 15
	noisy.Workloads[0].EndToEnd["wall_s"] = s
	if _, unresolved := compare(&out, base, noisy); unresolved != 1 {
		t.Errorf("reps of wall_s spread over 100%% of the median: %d unresolved, want 1", unresolved)
	}

	// Any rise of fail_ratio is worse.
	failing := handMade(10)
	failing.Workloads[0].EndToEnd["fail_ratio"] = stat{Median: 0.001, Q1: 0.001, Q3: 0.001, N: 1}
	if worse, _ := compare(&out, base, failing); worse != 1 {
		t.Errorf("a higher fail_ratio: %d worse, want 1", worse)
	}
}

// TestQuartiles pins the exclusive method to what Python's
// statistics.quantiles(n=4) returns.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || med != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles of 1..4: %v %v %v, want 1.25 2.5 3.75", q1, med, q3)
	}
}
