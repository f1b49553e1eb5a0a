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
	"enoki/internal/trace"
	"enoki/internal/vpol"
)

// System is the assembled simulation: a simulated machine under the
// deterministic epoch executor, and the scheduler classes loaded into it.
// It is the front door of the public API — construct one with NewSystem,
// attach policies, spawn work, run:
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
//
// The machine is always a ShardedKernel: one shard spanning the whole
// machine, or one per NUMA node under WithShards. Everything the System
// installs — modules, verified programs, CFS, admission — is installed on
// every shard.
type System struct {
	sk *kernel.ShardedKernel

	cfg      Config
	adapters []*enokic.Adapter

	// verified indexes the verified-tier classes attached through
	// Attach(VerifiedProgram(...)), by policy id (shard 0's instance).
	verified map[int]*vpol.Class

	tracer *trace.Tracer

	// adm holds the admission/brownout controllers installed by
	// WithAdmission, one per shard.
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

	perNode bool // WithShards: one shard per NUMA node
	shards  int  // WithShards' argument
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
// before spawning tasks or the earliest task_new messages are lost. A
// recorder taps one kernel, so NewSystem rejects it on a System of several
// shards.
func WithRecorder(w io.Writer, drainPolicy int) Option {
	return func(o *options) {
		o.recW, o.recPolicy, o.recWanted = w, drainPolicy, true
		o.recCosts = record.DefaultCosts()
	}
}

// WithTraceSink installs t as the event tracer on the kernel and on every
// module the System loads, producing one interleaved timeline of scheduling
// decisions and framework crossings. A tracer taps one kernel, so NewSystem
// rejects it on a System of several shards.
func WithTraceSink(t *Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithShards partitions the machine into one sub-kernel per NUMA node, all
// driven by the deterministic epoch-merge executor: shard i owns node i's
// CPUs, run queues, and timers, and the only cross-shard interaction is the
// remote wake (see ShardedKernel.RemoteWake). n must equal the machine's
// node count, or be 0 to accept whatever the machine has. Without it the
// System is one shard spanning the whole machine. Sharding changes the
// execution strategy, not the model: Attach and RegisterCFS apply per
// shard, and the simulation stays deterministic. On a one-node machine the
// partition is that one shard, and the System behaves as if built without
// WithShards.
func WithShards(n int) Option {
	return func(o *options) { o.perNode, o.shards = true, n }
}

// NewSystem builds the machine and its executor behind one handle. With no
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
	shards := 1
	if o.perNode {
		if o.shards != 0 && o.shards != o.machine.NumNodes {
			panic(fmt.Sprintf("enoki: WithShards(%d) on a %d-node machine (shards are NUMA nodes)",
				o.shards, o.machine.NumNodes))
		}
		shards = o.machine.NumNodes
	}
	if shards > 1 && (o.recWanted || o.tracer != nil) {
		panic("enoki: WithRecorder and WithTraceSink tap one kernel; with several shards attach one per ShardKernel")
	}
	s := &System{
		sk: kernel.NewShardedKernel(o.machine, o.costs, shards, 0), cfg: o.cfg,
		adm:  buildAdmission(&o, shards),
		recW: o.recW, recPolicy: o.recPolicy,
		recCosts: o.recCosts, recWanted: o.recWanted,
		tracer: o.tracer,
	}
	if o.tracer != nil {
		s.Kernel().SetTracer(o.tracer)
	}
	return s
}

// Kernel returns the simulated kernel (spawning tasks, querying state): the
// System's one shard, or nil when WithShards split the machine into several
// — use ShardKernel then.
func (s *System) Kernel() *Kernel {
	if s.sk.NumShards() > 1 {
		return nil
	}
	return s.sk.ShardKernel(0)
}

// Engine returns the discrete-event engine of the System's one shard, or
// nil when there are several (each has its own: ShardKernel(i).Engine()).
func (s *System) Engine() *Engine {
	if k := s.Kernel(); k != nil {
		return k.Engine()
	}
	return nil
}

// NumShards returns the shard count: 1, or the machine's NUMA node count
// under WithShards.
func (s *System) NumShards() int { return s.sk.NumShards() }

// ShardKernel returns shard i's sub-kernel; on a one-shard System, shard 0
// is Kernel.
func (s *System) ShardKernel(i int) *Kernel { return s.sk.ShardKernel(i) }

// Sharded returns the machine under its executor: one shard, or one per
// NUMA node under WithShards.
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

// RegisterCFS builds the native CFS baseline on every shard, attaches each
// under policy as a BuiltinClass, and returns shard 0's. Register it after
// every Enoki module so the modules sit above it in the pick order,
// mirroring the paper's setups.
func (s *System) RegisterCFS(policy int) *kernel.CFS {
	if s.closed {
		panic("enoki: RegisterCFS on a closed System")
	}
	for i := 0; i < s.NumShards(); i++ {
		s.MustAttach(policy, builtinSource{c: kernel.NewCFS(s.ShardKernel(i)), shard: i})
	}
	return s.ShardKernel(0).ClassByID(policy).(*kernel.CFS)
}

// afterRegister creates the deferred recorder once its drain class exists
// and installs it on every adapter loaded so far. A recorder implies one
// shard (NewSystem).
func (s *System) afterRegister() {
	if !s.recWanted || s.recorder != nil {
		return
	}
	k := s.sk.ShardKernel(0)
	if k.ClassByID(s.recPolicy) == nil {
		return
	}
	s.recorder = record.New(k, s.recW, s.recPolicy, s.recCosts)
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
	s.sk.RunFor(d)
}

// RunUntilIdle runs until every shard's event queue drains (all tasks exited
// or blocked with no timers pending) and no cross-shard message is in
// flight. On one shard the clock stops at the last event.
func (s *System) RunUntilIdle() { s.sk.RunUntilIdle() }

// Now returns the current virtual time: the executor's floor, which on one
// shard is the shard's clock, however it was driven.
func (s *System) Now() Time { return s.sk.Now() }
