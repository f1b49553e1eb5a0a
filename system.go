package enoki

import (
	"errors"
	"fmt"
	"io"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/overload"
	"enoki/internal/record"
	"enoki/internal/sim"
	"enoki/internal/trace"
	"enoki/internal/vpol"
)

// System is the assembled simulation: one event engine, one simulated
// kernel, and the scheduler classes loaded into it. It is the front door of
// the public API — construct one with NewSystem, attach policies, spawn
// work, run:
//
//	sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine80()))
//	ad, err := sys.Attach(policyMine, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
//	        return mysched.New(env, policyMine)
//	}))
//	sys.RegisterCFS(policyCFS) // CFS below the module, as in the paper
//	sys.Kernel().Spawn(...)
//	sys.Run(20 * time.Millisecond)
//
// Attachment order is priority order: policies attached earlier preempt
// later ones, which is why Enoki policies attach before CFS. Attach accepts
// all three tiers of the policy spectrum — GoModule, VerifiedProgram,
// BuiltinClass (see PolicySource).
type System struct {
	eng *sim.Engine
	k   *kernel.Kernel

	// sk is non-nil in sharded mode (WithShards): one sub-kernel per NUMA
	// node under the epoch-merge executor, and eng/k are nil — per-shard
	// access goes through ShardKernel.
	sk *kernel.ShardedKernel

	cfg      Config
	adapters []*enokic.Adapter

	// verified indexes the verified-tier classes attached through
	// Attach(VerifiedProgram(...)), by policy id (shard 0's instance in
	// sharded mode).
	verified map[int]*vpol.Class

	tracer *trace.Tracer

	// adm holds the admission/brownout controllers installed by
	// WithAdmission, one per shard (index 0 on an unsharded System).
	adm []*overload.Controller

	// Recorder plumbing: WithRecorder defers creation until the drain
	// class exists (the recorder spawns its userspace drain task into it).
	recW      io.Writer
	recPolicy int
	recCosts  RecordCosts
	recWanted bool
	recorder  *record.Recorder

	// closed latches after Close: a closed System cannot load modules or
	// run, and closing again reports ErrSystemClosed.
	closed bool
}

// ErrSystemClosed is the sentinel wrapped by operations on a closed System:
// a second Close, or Attach after Close.
var ErrSystemClosed = errors.New("system closed")

// options collects the functional-option state for NewSystem.
type options struct {
	machine  Machine
	costs    Costs
	hasCosts bool
	cfg      Config

	recW      io.Writer
	recPolicy int
	recCosts  RecordCosts
	recWanted bool

	tracer *trace.Tracer

	admission []overload.ClassConfig
	brownouts []brownoutOpt

	sharded bool
	shards  int
}

// Option configures NewSystem.
type Option func(*options)

// WithMachine selects the simulated host topology (default Machine8). Costs
// are calibrated for the machine via CostsFor unless WithCosts overrides
// them.
func WithMachine(m Machine) Option {
	return func(o *options) { o.machine = m }
}

// WithCosts overrides the kernel cost table (default CostsFor(machine)).
func WithCosts(c Costs) Option {
	return func(o *options) { o.costs, o.hasCosts = c, true }
}

// WithConfig sets the framework Config handed to every module (default
// DefaultConfig).
func WithConfig(cfg Config) Option {
	return func(o *options) { o.cfg = cfg }
}

// WithRecorder arranges record mode: a Recorder writing the message/lock
// log to w, its userspace drain task spawned into drainPolicy (normally the
// CFS policy id), installed on every module the System loads. The recorder
// is created as soon as drainPolicy's class is registered — register it
// before spawning tasks or the earliest task_new messages are lost.
func WithRecorder(w io.Writer, drainPolicy int) Option {
	return func(o *options) {
		o.recW, o.recPolicy, o.recWanted = w, drainPolicy, true
		o.recCosts = record.DefaultCosts()
	}
}

// WithTraceSink installs t as the event tracer on the kernel and on every
// module the System loads, producing one interleaved timeline of scheduling
// decisions and framework crossings.
func WithTraceSink(t *Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithShards partitions the machine into one sub-kernel per NUMA node, all
// driven by the deterministic epoch-merge executor: shard i owns node i's
// CPUs, run queues, and timers, and the only cross-shard interaction is the
// remote wake (see ShardedKernel.RemoteWake). n must equal the machine's
// node count, or be 0 to accept whatever the machine has. Sharding changes
// the execution strategy, not the model: Attach and RegisterCFS apply per
// shard, and the simulation stays deterministic.
//
// In sharded mode Kernel and Engine return nil — use NumShards and
// ShardKernel — and WithRecorder/WithTraceSink are rejected: recorders and
// tracers are single-kernel taps, so attach one per shard by hand instead.
func WithShards(n int) Option {
	return func(o *options) { o.sharded, o.shards = true, n }
}

// NewSystem builds an engine and a kernel behind one handle. With no
// options it models the paper's 8-core machine with calibrated costs and no
// observability taps.
func NewSystem(opts ...Option) *System {
	o := options{machine: kernel.Machine8(), cfg: enokic.DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	if !o.hasCosts {
		o.costs = kernel.CostsFor(o.machine)
	}
	if o.sharded {
		if o.shards != 0 && o.shards != o.machine.NumNodes {
			panic(fmt.Sprintf("enoki: WithShards(%d) on a %d-node machine (shards are NUMA nodes)",
				o.shards, o.machine.NumNodes))
		}
		if o.recWanted {
			panic("enoki: WithRecorder is a single-kernel tap; in sharded mode attach one recorder per ShardKernel")
		}
		if o.tracer != nil {
			panic("enoki: WithTraceSink is a single-kernel tap; in sharded mode attach one tracer per ShardKernel")
		}
		sk := kernel.NewShardedKernel(o.machine, o.costs, 0)
		return &System{sk: sk, cfg: o.cfg, adm: buildAdmission(&o, sk.NumShards())}
	}
	eng := sim.New()
	k := kernel.New(eng, o.machine, o.costs)
	s := &System{
		eng: eng, k: k, cfg: o.cfg,
		adm:  buildAdmission(&o, 1),
		recW: o.recW, recPolicy: o.recPolicy,
		recCosts: o.recCosts, recWanted: o.recWanted,
		tracer: o.tracer,
	}
	if o.tracer != nil {
		k.SetTracer(o.tracer)
	}
	return s
}

// Kernel returns the simulated kernel (spawning tasks, querying state). In
// sharded mode there is no single kernel and Kernel returns nil — use
// ShardKernel.
func (s *System) Kernel() *Kernel { return s.k }

// Engine returns the discrete-event engine driving the simulation, or nil
// in sharded mode (each shard has its own; ShardKernel(i).Engine()).
func (s *System) Engine() *Engine { return s.eng }

// NumShards returns the shard count: 1 for a single-kernel System, the
// machine's NUMA node count under WithShards.
func (s *System) NumShards() int {
	if s.sk != nil {
		return s.sk.NumShards()
	}
	return 1
}

// ShardKernel returns shard i's sub-kernel. On a single-kernel System only
// shard 0 exists and it is the kernel itself.
func (s *System) ShardKernel(i int) *Kernel {
	if s.sk != nil {
		return s.sk.ShardKernel(i)
	}
	if i != 0 {
		panic(fmt.Sprintf("enoki: ShardKernel(%d) on an unsharded System", i))
	}
	return s.k
}

// Sharded returns the sharded executor wrapper, or nil when the System was
// built without WithShards.
func (s *System) Sharded() *ShardedKernel { return s.sk }

// Close retires the System; it holds no goroutine, so Close only latches the
// closed state. The first Close returns nil; closing again returns an error
// wrapping ErrSystemClosed, and a closed System rejects Attach (error) and
// panics on RegisterCFS/Run — mirroring the UserQueue double-Close
// hardening, so lifecycle bugs surface as clean failures instead of
// use-after-close corruption.
func (s *System) Close() error {
	if s.closed {
		return fmt.Errorf("enoki: double Close: %w", ErrSystemClosed)
	}
	s.closed = true
	return nil
}

// Config returns the framework Config handed to every attached module.
func (s *System) Config() Config { return s.cfg }

// RegisterCFS builds the native CFS baseline, registers it under policy,
// and returns it. Register it after every Enoki module so the modules sit
// above it in the pick order, mirroring the paper's setups. In sharded mode
// one CFS is built per shard and shard 0's is returned.
func (s *System) RegisterCFS(policy int) *kernel.CFS {
	if s.closed {
		panic("enoki: RegisterCFS on a closed System")
	}
	if s.sk != nil {
		var first *kernel.CFS
		for i := 0; i < s.sk.NumShards(); i++ {
			k := s.sk.ShardKernel(i)
			c := kernel.NewCFS(k)
			k.RegisterClass(policy, c)
			if first == nil {
				first = c
			}
		}
		return first
	}
	c := kernel.NewCFS(s.k)
	s.MustAttach(policy, BuiltinClass(c))
	return c
}

// afterRegister creates the deferred recorder once its drain class exists
// and installs it on every adapter loaded so far.
func (s *System) afterRegister() {
	if !s.recWanted || s.recorder != nil || s.k.ClassByID(s.recPolicy) == nil {
		return
	}
	s.recorder = record.New(s.k, s.recW, s.recPolicy, s.recCosts)
	for _, ad := range s.adapters {
		ad.SetRecorder(s.recorder)
	}
}

// Recorder returns the live recorder, or nil when WithRecorder was not used
// or its drain class is not registered yet.
func (s *System) Recorder() *Recorder { return s.recorder }

// Adapters returns the modules loaded through this System, in load order.
func (s *System) Adapters() []*Adapter { return s.adapters }

// Run advances the simulation by d of virtual time.
func (s *System) Run(d time.Duration) {
	if s.closed {
		panic("enoki: Run on a closed System")
	}
	if s.sk != nil {
		s.sk.RunFor(d)
		return
	}
	s.k.RunFor(d)
}

// RunUntilIdle runs until the event queue drains (all tasks exited or
// blocked with no timers pending; in sharded mode, every shard drained and
// no cross-shard message in flight).
func (s *System) RunUntilIdle() {
	if s.sk != nil {
		s.sk.RunUntilIdle()
		return
	}
	s.k.RunUntilIdle()
}

// Now returns the current virtual time.
func (s *System) Now() Time {
	if s.sk != nil {
		return s.sk.Now()
	}
	return s.k.Now()
}
