// Command benchmark is the repo's performance-and-fidelity ledger: six
// workloads, end-to-end and per-layer metrics, a traced run. See README.md.
//
//	go run ./benchmark run     [-workload name] [-seed N] [-seconds S] [-size full|smoke] [-out file]
//	go run ./benchmark trace   [same flags]     the per-layer numbers, trace.json and layers.json
//	go run ./benchmark compare old.json new.json
//	go run ./benchmark aa      [same flags]     the full set twice, compared
//
// BENCHMARK.json's command (bash benchmark/run.sh) is run -workload W -seed N
// -seconds S -trace 0|1, built inside the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	// One simulation goroutine drives every workload; the second P is for
	// the collector. Recorded in every result file.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = cmdRun(args)
	case "trace":
		err = cmdRun(append([]string{"-trace", "1"}, args...))
	case "compare":
		err = cmdCompare(args)
	case "aa":
		err = cmdAA(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchmark run|trace|aa [-workload name] [-seed N] [-seconds S] [-size full|smoke] [-out file] [-cpuprofile dir] [-memprofile dir]")
	fmt.Fprintln(os.Stderr, "       benchmark compare old.json new.json")
	os.Exit(2)
}

// errChecksFailed makes the process exit non-zero after the results are out.
var errChecksFailed = errors.New("an output check failed")

const outDir = "benchmark/out"

func parseOptions(name string, args []string) (options, error) {
	var opt options
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "run only this workload, in this process (default: each in a process of its own)")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed of the input generator")
	fs.Float64Var(&opt.seconds, "seconds", 12, "measuring time per workload")
	fs.StringVar(&opt.size, "size", "full", "input size: full or smoke")
	fs.StringVar(&opt.out, "out", "", "result file (default under "+outDir+"); trace.json and layers.json go beside it")
	fs.StringVar(&opt.cpuProf, "cpuprofile", "", "write <workload>.cpu.pprof into this directory")
	fs.StringVar(&opt.memProf, "memprofile", "", "write <workload>.mem.pprof into this directory")
	trace := fs.Int("trace", 0, "1: the traced run (what the trace command does)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := sizes[opt.size]; !ok {
		return opt, fmt.Errorf("unknown size %q", opt.size)
	}
	opt.trace = *trace == 1
	if opt.out == "" {
		base := "run"
		if opt.workload != "" {
			base = opt.workload
		}
		if opt.trace {
			base += ".traced"
		}
		opt.out = filepath.Join(outDir, base+".json")
	}
	return opt, nil
}

func cmdRun(args []string) error {
	opt, err := parseOptions("run", args)
	if err != nil {
		return err
	}
	if opt.workload == "" {
		_, err := runAll(opt)
		return err
	}
	w, ok := findWorkload(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	rf := &resultFile{Env: currentEnvironment(sizes[opt.size], opt.seed), Workloads: []workloadResult{*res}}
	if err := writeResult(opt.out, rf); err != nil {
		return err
	}
	if err := printDriverLine(os.Stdout, res); err != nil {
		return err
	}
	if res.Failed > 0 || len(res.Problems) > 0 {
		return errChecksFailed
	}
	return nil
}

// runAll runs every workload in a process of its own — peak memory and heap
// state are per workload — and merges their result files.
func runAll(opt options) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rf := &resultFile{Env: currentEnvironment(sizes[opt.size], opt.seed)}
	failed := false
	for _, w := range workloads() {
		part := filepath.Join(filepath.Dir(opt.out), w.Name+".part.json")
		trace := "0"
		if opt.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "run", "-workload", w.Name, "-seed", strconv.FormatUint(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-size", opt.size, "-trace", trace,
			"-out", part, "-cpuprofile", opt.cpuProf, "-memprofile", opt.memProf)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return nil, err
			}
			failed = true // the child said why; keep going so every workload reports
		}
		one, err := readResult(part)
		if err != nil {
			return nil, err
		}
		os.Remove(part)
		rf.Workloads = append(rf.Workloads, one.Workloads...)
	}
	if err := writeResult(opt.out, rf); err != nil {
		return nil, err
	}
	fmt.Printf("\nresult file: %s\n{\"workloads\": %d, \"claim\": null}\n", opt.out, len(rf.Workloads))
	if failed {
		return rf, errChecksFailed
	}
	return rf, nil
}

// writeResult writes the ledger and, for a traced run, trace.json (the coarse
// spans as a Chrome trace, one lane per workload) and layers.json (the folded
// hook-level spans per workload) beside it.
func writeResult(path string, rf *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeJSON(path, rf); err != nil {
		return err
	}
	var events []map[string]any
	layers := make(map[string]map[string]fold)
	for i, w := range rf.Workloads {
		if !w.Traced {
			continue
		}
		for _, ev := range w.TraceEvents {
			ev["tid"] = i + 1
			events = append(events, ev)
		}
		layers[w.Workload] = w.Layers
	}
	if len(layers) == 0 {
		return nil
	}
	dir := filepath.Dir(path)
	if err := writeJSON(filepath.Join(dir, "trace.json"), map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), layers)
}

// printDriverLine prints the one-line JSON object BENCHMARK.json's contract
// asks for as the last line of output: every end_to_end metric of an untraced
// run, every per_layer metric of a traced one.
func printDriverLine(w io.Writer, res *workloadResult) error {
	metrics := make(map[string]layerValue)
	if res.Traced {
		for _, def := range perLayer {
			metrics[def.Name] = res.PerLayer[def.Name]
		}
	} else {
		for _, def := range endToEnd {
			if !def.Driver {
				continue
			}
			s, ok := res.EndToEnd[def.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not produced", def.Name)
			}
			metrics[def.Name] = layerValue{s.Median, s.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0 && len(res.Problems) == 0,
		"attempted": res.Attempted,
		"failed":    min(res.Failed, res.Attempted),
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		usage()
	}
	old, err := readResult(args[0])
	if err != nil {
		return err
	}
	new, err := readResult(args[1])
	if err != nil {
		return err
	}
	if worse, _ := compare(os.Stdout, old, new); worse > 0 {
		return fmt.Errorf("%d rows worse", worse)
	}
	return nil
}

// cmdAA is the acceptance check: the same code measured twice must agree with
// itself within the benchmark's own bounds, and simulate identically.
func cmdAA(args []string) error {
	opt, err := parseOptions("aa", args)
	if err != nil {
		return err
	}
	var sets [2]*resultFile
	for i := range sets {
		o := opt
		o.out = filepath.Join(filepath.Dir(opt.out), fmt.Sprintf("aa_%d.json", i+1))
		if sets[i], err = runAll(o); err != nil {
			return err
		}
	}
	fmt.Println()
	worse, unresolved := compare(os.Stdout, sets[0], sets[1])
	for i, a := range sets[0].Workloads {
		if b := sets[1].Workloads[i]; a.SimDigest != b.SimDigest {
			fmt.Printf("%s: sim_digest differs between the two sets\n", a.Workload)
			worse++
		}
	}
	if worse > 0 || unresolved > 0 {
		return fmt.Errorf("A/A: %d rows worse, %d unresolved", worse, unresolved)
	}
	fmt.Println("A/A: the two sets agree within every bound")
	return nil
}
