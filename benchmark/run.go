package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// options are the flags of run and trace.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	size     string
	out      string
	cpuProf  string
	memProf  string
}

// minReps is the fewest timed reps a run reports medians over, however short
// its measuring time.
const minReps = 3

// runWorkload measures one workload in this process: generate the input from
// the seed, one discarded warm-up rep (page faults, heap growth), then timed
// reps until opt.seconds have passed. Every rep builds a fresh rig. With
// opt.trace the time is split between untraced reps, traced reps, the ladder,
// the workload's differencing rung and the micro-timings.
func runWorkload(w workload, opt options) (*workloadResult, error) {
	sz := sizes[opt.size]
	build := w.New(opt.seed, sz)
	res := &workloadResult{Workload: w.Name, Op: w.Op, Seed: opt.seed, Size: sz.Name, Traced: opt.trace}

	stopProfile, err := startCPUProfile(opt.cpuProf, w.Name)
	if err != nil {
		return nil, err
	}
	runRep(build, nil)

	budget := time.Duration(opt.seconds * float64(time.Second))
	var tr *tracer
	var traced []repStats
	if opt.trace {
		// Half the time goes to alternating untraced and traced reps, so
		// the tracing overhead compares like with like.
		budget /= 2
		tr = newTracer()
		tr.begin(w.Name)
	}
	var reps []repStats
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		reps = append(reps, runRep(build, nil))
		if opt.trace {
			tr.begin("rep")
			r := runRep(build, tr)
			tr.end()
			tr.settle(r.HostSpeed)
			traced = append(traced, r)
		}
	}
	res.Seconds = time.Since(start).Seconds()
	stopProfile()
	if err := writeHeapProfile(opt.memProf, w.Name); err != nil {
		return nil, err
	}

	summarise(res, reps)
	if !opt.trace {
		return res, nil
	}

	for i, r := range traced {
		if r.out.Digest != reps[0].out.Digest {
			res.fail(r.out.Ops, "traced rep %d digest %016x differs from the untraced %016x: the decorators changed the simulation, trace rejected",
				i, r.out.Digest, reps[0].out.Digest)
		}
	}
	t := &tracedRun{untraced: reps, traced: traced, tr: tr}
	t.ladder = runLadder(opt.seed, sz, tr)
	tr.begin("rung")
	t.rungWallS = res.runRung(w, opt.seed, sz)
	tr.end()
	tr.begin("micro")
	speed := atHostSpeed(func() {
		t.micro = map[string]float64{
			"sim.wheel_ns_per_event":   microWheel(sz.MicroIters),
			"kernel.spawn_exit_ns":     microSpawnExit(sz.MicroIters / 10),
			"core.dispatch_ns_per_msg": microDispatch(sz.MicroIters),
			"overload.admit_done_ns":   microAdmitDone(sz.MicroIters),
			"vpol.verify_load_us":      microVerifyLoad(max(sz.MicroIters/1000, 10)),
		}
	})
	for name := range t.micro {
		t.micro[name] *= speed
	}
	tr.end()
	tr.end()

	values, table, tracedWall := layerMetrics(t, res.EndToEnd)
	res.PerLayer = make(map[string]layerValue, len(perLayer))
	for _, def := range perLayer {
		res.PerLayer[def.Name] = layerValue{Value: values[def.Name], Unit: def.Unit}
	}
	if len(values) != len(perLayer) {
		res.fail(1, "%d per-layer values for %d named metrics: a derived metric is missing from the perLayer list", len(values), len(perLayer))
	}
	res.LayerTable, res.TracedWallS = table, tracedWall
	res.Ladder = t.ladder
	res.Layers = tr.foldsByName()
	res.TraceEvents = tr.chromeEvents()
	// A negative difference is not a failed output check — two noisy rungs a
	// few nanoseconds apart can cross — but the reader must know the row
	// cannot be trusted.
	for _, row := range table {
		if !row.Exact && row.Seconds < 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("difference row %q is negative (%.6f s): its two rungs are closer than the noise, or differ in more than one layer", row.Layer, row.Seconds))
		}
	}
	return res, nil
}

func (res *workloadResult) fail(n uint64, format string, args ...any) {
	res.Failed += n
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// summarise turns the timed reps into the end-to-end metrics and the run's
// verdict.
func summarise(res *workloadResult, reps []repStats) {
	first := reps[0].out
	res.Ops, res.Reps, res.RepValues = first.Ops, len(reps), reps
	res.SimDigest = fmt.Sprintf("%016x", first.Digest)
	res.Samples, res.Cells = first.Samples, first.Cells

	cols := make(map[string][]float64)
	nondet := 0.0
	for i, r := range reps {
		ops := float64(r.out.Ops)
		cols["setup_s"] = append(cols["setup_s"], r.SetupS)
		cols["wall_s"] = append(cols["wall_s"], r.WallS)
		cols["cpu_s"] = append(cols["cpu_s"], r.CPUS)
		cols["ops_per_s"] = append(cols["ops_per_s"], ops/r.WallS)
		cols["allocs_per_op"] = append(cols["allocs_per_op"], float64(r.Mallocs)/ops)
		cols["bytes_per_op"] = append(cols["bytes_per_op"], float64(r.Bytes)/ops)
		res.Attempted += r.out.Ops
		res.Failed += r.out.Failed
		for _, p := range r.out.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		if r.out.Digest != first.Digest {
			nondet = 1
			res.fail(r.out.Ops, "rep %d digest %016x differs from rep 0's %016x: the simulation is not deterministic", i, r.out.Digest, first.Digest)
		}
	}
	cols["rss_peak_mb"] = []float64{rssPeakMB()}
	if first.Samples > 0 {
		cols["sim_p50_us"] = []float64{float64(first.P50) / 1e3}
		cols["sim_p99_us"] = []float64{float64(first.P99) / 1e3}
		cols["sim_ctx_per_op"] = []float64{float64(first.Ctx) / float64(first.Ops)}
	}
	if len(first.Cells) > 0 {
		cols["paper_err_pct"] = []float64{paperErrPct(first.Cells)}
	}
	cols["sim_nondet"] = []float64{nondet}
	cols["fail_ratio"] = []float64{float64(res.Failed) / float64(res.Attempted)}

	res.EndToEnd = make(map[string]stat)
	for _, def := range endToEnd {
		if vs, ok := cols[def.Name]; ok {
			res.EndToEnd[def.Name] = newStat(def, vs)
		}
	}
}

// runRung runs the workload's differencing rung, if it has one — a discarded
// warm-up and minReps timed reps — and returns its median wall time.
func (res *workloadResult) runRung(w workload, seed uint64, sz size) float64 {
	if w.Rung == nil {
		return 0
	}
	rung := w.Rung(seed, sz)
	build := func(*tracer) rig { return rung() }
	runRep(build, nil)
	var walls []float64
	for i := 0; i < minReps; i++ {
		r := runRep(build, nil)
		walls = append(walls, r.WallS)
		for _, p := range r.out.Problems {
			res.fail(r.out.Failed, "rung: %s", p)
		}
	}
	return median(walls)
}

func startCPUProfile(dir, workload string) (stop func(), err error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func writeHeapProfile(dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".mem.pprof"))
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
