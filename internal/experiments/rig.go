// Package experiments contains one harness per table and figure in the
// paper's evaluation (§5). Each harness builds a fresh simulated machine,
// registers the schedulers under test, runs the workload model, and renders
// a paper-style table; DESIGN.md §3 maps every experiment id to its modules
// and bench target.
package experiments

import (
	"time"

	"enoki"
	"enoki/internal/arachne"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/ghost"
	"enoki/internal/kernel"
	"enoki/internal/metrics"
	"enoki/internal/sched/arbiter"
	"enoki/internal/sched/fifo"
	"enoki/internal/sched/locality"
	"enoki/internal/sched/shinjuku"
	"enoki/internal/sched/wfq"
	"enoki/internal/trace"
)

// Scheduler policy numbers used across all experiments.
const (
	PolicyCFS   = 0
	PolicyEnoki = 1
	PolicyGhost = 2
)

// Kind names a scheduler configuration under test.
type Kind int

// Scheduler configurations.
const (
	KindCFS Kind = iota
	KindFIFO
	KindWFQ
	KindShinjuku
	KindLocality
	KindArbiter
	KindGhostFIFO
	KindGhostSOL
	KindGhostShinjuku
)

func (k Kind) String() string {
	switch k {
	case KindCFS:
		return "CFS"
	case KindFIFO:
		return "FIFO"
	case KindWFQ:
		return "WFQ"
	case KindShinjuku:
		return "Shinjuku"
	case KindLocality:
		return "Locality"
	case KindArbiter:
		return "Arachne"
	case KindGhostFIFO:
		return "GhOSt FIFO"
	case KindGhostSOL:
		return "GhOSt SOL"
	case KindGhostShinjuku:
		return "ghOSt-Shinjuku"
	default:
		return "?"
	}
}

// Rig is one simulated machine with schedulers registered.
type Rig struct {
	Sys     *enoki.System
	K       *kernel.Kernel
	Kind    Kind
	Adapter *enokic.Adapter
	Ghost   *ghost.Ghost
	// Policy is the class workload tasks should spawn into.
	Policy int
	// AgentCPU is the ghOSt SOL dedicated core (-1 otherwise).
	AgentCPU int
}

// callOverhead is the per-invocation framework cost of each Enoki module;
// it varies slightly with policy complexity, within the paper's 100-150 ns
// band.
func callOverhead(kind Kind) time.Duration {
	switch kind {
	case KindFIFO:
		return 105 * time.Nanosecond
	case KindWFQ, KindShinjuku:
		return 130 * time.Nanosecond
	case KindArbiter:
		return 115 * time.Nanosecond
	default:
		return 110 * time.Nanosecond
	}
}

// NewRig builds a machine running the given scheduler kind, assembled
// through the public enoki.System constructor. Enoki and ghOSt classes
// register above CFS, matching the experiments' priority setup; CFS is
// always present for background/batch work.
func NewRig(m kernel.Machine, kind Kind) *Rig {
	cfg := enokic.DefaultConfig()
	cfg.CallOverhead = callOverhead(kind)
	sys := enoki.NewSystem(enoki.WithMachine(m), enoki.WithConfig(cfg))
	k := sys.Kernel()
	r := &Rig{Sys: sys, K: k, Kind: kind, Policy: PolicyCFS, AgentCPU: -1}

	load := func(f func(core.Env) core.Scheduler) {
		r.Adapter = sys.MustAttach(PolicyEnoki, enoki.GoModule(f))
		r.Policy = PolicyEnoki
	}

	switch kind {
	case KindCFS:
		// CFS only.
	case KindFIFO:
		load(func(env core.Env) core.Scheduler { return fifo.New(env, PolicyEnoki) })
	case KindWFQ:
		load(func(env core.Env) core.Scheduler { return wfq.New(env, PolicyEnoki) })
	case KindShinjuku:
		load(func(env core.Env) core.Scheduler {
			return shinjuku.New(env, PolicyEnoki, shinjuku.DefaultSlice)
		})
	case KindLocality:
		load(func(env core.Env) core.Scheduler { return locality.New(env, PolicyEnoki) })
	case KindArbiter:
		managed := make([]int, 0, m.NumCPUs-1)
		for c := 1; c < m.NumCPUs; c++ {
			managed = append(managed, c)
		}
		load(func(env core.Env) core.Scheduler {
			return arbiter.New(env, PolicyEnoki, managed)
		})
	case KindGhostFIFO:
		r.Ghost = ghost.New(k, ghost.ModePerCPU, ghost.NewFIFOPolicy(), -1, ghost.DefaultCosts())
		sys.MustAttach(PolicyGhost, enoki.BuiltinClass(r.Ghost))
		r.Policy = PolicyGhost
	case KindGhostSOL:
		r.AgentCPU = 2
		r.Ghost = ghost.New(k, ghost.ModeSOL, ghost.NewSOLPolicy(), r.AgentCPU, ghost.DefaultCosts())
		sys.MustAttach(PolicyGhost, enoki.BuiltinClass(r.Ghost))
		r.Policy = PolicyGhost
	case KindGhostShinjuku:
		r.AgentCPU = 2
		r.Ghost = ghost.New(k, ghost.ModeSOL, ghost.NewShinjukuPolicy(10*time.Microsecond),
			r.AgentCPU, ghost.DefaultCosts())
		sys.MustAttach(PolicyGhost, enoki.BuiltinClass(r.Ghost))
		r.Policy = PolicyGhost
	}
	sys.RegisterCFS(PolicyCFS)
	if r.Ghost != nil {
		r.Ghost.Start(PolicyGhost)
	}
	return r
}

// Observe installs a shared tracer (ring capacity events) and metric set on
// the rig's kernel and, when an Enoki module is loaded, on its adapter — one
// interleaved timeline and one histogram set covering kernel decisions and
// framework crossings alike. Call before running the workload.
func (r *Rig) Observe(capacity int) (*trace.Tracer, *metrics.Set) {
	tr := trace.New(capacity)
	ms := metrics.NewSet(r.K.NumCPUs())
	r.K.SetTracer(tr)
	r.K.SetMetrics(ms)
	if r.Adapter != nil {
		r.Adapter.SetTracer(tr)
		r.Adapter.SetMetrics(ms)
	}
	return tr, ms
}

// NewArachneRig builds an Enoki-Arachne machine: arbiter module plus an
// attached two-level runtime with maxCores activations.
func NewArachneRig(m kernel.Machine, minCores, maxCores int) (*Rig, *arachne.Runtime) {
	r := NewRig(m, KindArbiter)
	cfg := arachne.DefaultConfig()
	cfg.MinCores = minCores
	cfg.MaxCores = maxCores
	rt := arachne.NewRuntime(r.K, cfg)
	acts := rt.Start(PolicyEnoki, maxCores)
	arachne.AttachEnoki(rt, r.Adapter, 1, acts)
	return r, rt
}

// Options tunes experiment scale: Quick shrinks message counts and
// durations so the full suite runs in seconds (used by `go test -bench`);
// the full scale matches the paper's run lengths. Parallel sets how many
// independent experiment cells may run concurrently (each on its own Rig and
// engine); 0 or 1 runs serially and produces byte-identical output.
type Options struct {
	Quick    bool
	Parallel int
}

// scale returns full when !Quick, quick otherwise.
func scaleInt(o Options, full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

func scaleDur(o Options, full, quick time.Duration) time.Duration {
	if o.Quick {
		return quick
	}
	return full
}
