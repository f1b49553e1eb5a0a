package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"enoki"
)

// Policy ids every rig uses: the class under test sits above CFS, as in the
// paper's set-ups.
const (
	policyCFS  = 0
	policyTest = 1
)

// A workload is one set of inputs the benchmark runs. New generates the input
// from the seed — the only thing the seed feeds; the program under test
// receives generated inputs — and the returned builder makes a fresh rig per
// rep, because building the System or Cluster is what users pay every time.
type workload struct {
	Name string
	// Op is the unit of ops_per_s.
	Op  string
	Why string
	// New generates the seeded input at the given size and returns the rig
	// builder. A non-nil tracer asks the builder to install the decorators.
	New func(seed uint64, sz size) func(tr *tracer) rig
	// Rung, where set, builds the workload's differencing rung from the same
	// seeded input: the same work with one layer taken out.
	Rung func(seed uint64, sz size) func() rig
}

// A rig is one built System or Cluster, ready to run once.
type rig interface {
	// Run is the timed region: Run/RunUntilIdle/DriveTraffic/experiment calls
	// and nothing else.
	Run()
	// Check runs the output checks and reads the public counters after Run.
	Check() outcome
}

// outcome is what one rep produced, all of it virtual-time or counts: it must
// repeat exactly for a fixed seed.
type outcome struct {
	Ops    uint64 // operations attempted, in the workload's Op unit
	Failed uint64 // of those, operations whose output check failed
	// Problems names each failed check.
	Problems []string
	// Digest is the FNV-64a digest of the simulated statistics.
	Digest uint64
	// P50/P99 are virtual-time latencies from the workload's stated source;
	// Samples is how many observations they summarise (0: not reported).
	P50, P99 time.Duration
	Samples  uint64
	// Ctx is context switches, Events engine events fired, over the run.
	Ctx    uint64
	Events uint64
	// Counters are the per-layer [c] metrics this workload can read.
	Counters map[string]float64
	// Cells is paper_quick's reproduced cells.
	Cells []cellResult
}

func (o *outcome) fail(n uint64, format string, args ...any) {
	o.Failed += n
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// size scales every workload together: full is the frozen size every reported
// number is measured at, smoke is the milliseconds-long size the tier-1 test
// uses.
type size struct {
	Name string
	// PipeModuleMsgs, PipeVerifiedMsgs and LadderMsgs are messages per pair;
	// LadderRounds is how many timed reps each ladder rung gets.
	PipeModuleMsgs   int
	PipeVerifiedMsgs int
	LadderMsgs       int
	LadderRounds     int
	// TickVirtual is tick_saturated's simulated duration.
	TickVirtual time.Duration
	// FleetMachines × FleetJobsPerMachine jobs; the kill lands at FleetKillAt.
	FleetMachines       int
	FleetJobsPerMachine int
	FleetKillAt         time.Duration
	// TrafficDuration is the scenario length, TrafficDrain the drain after it.
	TrafficDuration time.Duration
	TrafficDrain    time.Duration
	// PaperExperiments are the experiments paper_quick runs.
	PaperExperiments []string
	// MicroIters is the iteration count of each isolated micro-timing batch.
	MicroIters int
}

var sizes = map[string]size{
	"full": {
		Name:           "full",
		PipeModuleMsgs: 200_000, PipeVerifiedMsgs: 300_000, LadderMsgs: 30_000, LadderRounds: 5,
		TickVirtual:   10 * time.Second,
		FleetMachines: 200, FleetJobsPerMachine: 200, FleetKillAt: 5 * time.Millisecond,
		TrafficDuration: 20 * time.Millisecond, TrafficDrain: 10 * time.Millisecond,
		PaperExperiments: []string{"table3", "table4", "table6", "upgrade"},
		MicroIters:       200_000,
	},
	"smoke": {
		Name:           "smoke",
		PipeModuleMsgs: 2_000, PipeVerifiedMsgs: 2_000, LadderMsgs: 1_000, LadderRounds: 1,
		TickVirtual:   50 * time.Millisecond,
		FleetMachines: 12, FleetJobsPerMachine: 40, FleetKillAt: 2 * time.Millisecond,
		TrafficDuration: 4 * time.Millisecond, TrafficDrain: 10 * time.Millisecond,
		PaperExperiments: []string{"table6"},
		MicroIters:       2_000,
	},
}

// workloads lists the six in ledger order; later issues refer to these names
// verbatim.
func workloads() []workload {
	return []workload{
		pipeWorkload("pipe_module", rungModuleFIFO, func(sz size) int { return sz.PipeModuleMsgs },
			"ping-pong under the FIFO Go module: the enokic/core crossing and a sched policy do most of the work, timers and spawn/exit almost none"),
		pipeWorkload("pipe_verified", rungVerifiedFIFO, func(sz size) int { return sz.PipeVerifiedMsgs },
			"the same ping-pong under the verified FIFO program: same kernel path and policy, but the vpol interpreter runs it and the crossing is bypassed"),
		tickWorkload(),
		fleetWorkload(),
		trafficWorkload(),
		paperWorkload(),
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest folds simulated statistics into one FNV-64a word.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) word(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

// kernel folds one kernel's public counters and final clock.
func (d digest) kernel(k *enoki.Kernel) {
	d.word(k.CtxSwitches, k.Wakeups, k.IPIsSent, k.IPIsCoalesced, k.Engine().Fired(), uint64(k.Now()))
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// kernelCounters adds the kernel-layer [c] counters of one or more kernels.
func kernelCounters(c map[string]float64, ks ...*enoki.Kernel) (ctx, events uint64) {
	var wake, sent, coalesced uint64
	for _, k := range ks {
		ctx += k.CtxSwitches
		events += k.Engine().Fired()
		wake += k.Wakeups
		sent += k.IPIsSent
		coalesced += k.IPIsCoalesced
	}
	c["kernel.wakeups"] = float64(wake)
	c["kernel.ipis"] = float64(sent)
	c["kernel.ipis_coalesced"] = float64(coalesced)
	return ctx, events
}

// shardKernels returns every shard's kernel of sys (the kernel itself when
// sys is unsharded).
func shardKernels(sys *enoki.System) []*enoki.Kernel {
	ks := make([]*enoki.Kernel, sys.NumShards())
	for i := range ks {
		ks[i] = sys.ShardKernel(i)
	}
	return ks
}

// registerCFS puts CFS under policyCFS on every shard. Untraced it is the
// front door's RegisterCFS; traced it registers the same class per shard
// behind a span decorator.
func registerCFS(sys *enoki.System, tr *tracer) {
	if tr == nil {
		sys.RegisterCFS(policyCFS)
		return
	}
	for _, k := range shardKernels(sys) {
		k.RegisterClass(policyCFS, traceClass(tr, "cfs", enoki.NewCFS(k)))
	}
}
