// Package enoki is the public API of the Enoki reproduction: a framework
// for high velocity development of (simulated) Linux kernel schedulers,
// after "Enoki: High Velocity Linux Kernel Scheduler Development"
// (EuroSys '24).
//
// A scheduler is a type implementing Scheduler (the EnokiScheduler trait,
// Table 1 of the paper), written only against this package. Attach it to a
// simulated kernel and it schedules tasks exactly where a sched_class
// would:
//
//	sys := enoki.NewSystem(enoki.WithMachine(enoki.Machine8()))
//	ad, err := sys.Attach(myPolicyID, enoki.GoModule(
//	        func(env enoki.Env) enoki.Scheduler { return mysched.New(env) }))
//	sys.RegisterCFS(0) // CFS below it, as in the paper
//	sys.Kernel().Spawn(...)
//	sys.Run(20 * time.Millisecond)
//
// System.Attach is the single attachment surface for the three-tier policy
// spectrum: GoModule (full framework crossing), VerifiedProgram (bytecode
// verified and interpreted in the kernel pick path, ~7× cheaper per hook),
// and BuiltinClass (native Go classes like CFS/RT). See PolicySource.
//
// The framework provides the paper's headline features:
//
//   - Schedulable proofs: the framework validates every pick_next_task
//     return against its authoritative table and bounces bad ones through
//     pnt_err, so a buggy module cannot run a task on the wrong CPU.
//   - Live upgrade: Adapter.Upgrade quiesces the module behind a
//     write-locked boundary, transfers state via reregister_prepare/init,
//     and swaps the dispatch pointer with a µs-scale blackout.
//   - Bidirectional hints: Adapter.CreateHintQueue / CreateRevQueue carry
//     scheduler-defined messages between userspace and the module.
//   - Record and replay: record.New captures every message and lock
//     operation; replay.Replay runs the same module code at userspace and
//     validates its decisions.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured results.
package enoki

import (
	"io"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/sim"
	"enoki/internal/trace"
	"enoki/internal/vpol"
)

// --- scheduler-facing API (libEnoki) ----------------------------------------

// Scheduler is the EnokiScheduler trait (Table 1): implement it to build a
// loadable scheduler.
type Scheduler = core.Scheduler

// BaseScheduler supplies default no-op implementations of the optional
// trait methods; embed it in your scheduler.
type BaseScheduler = core.BaseScheduler

// Schedulable is the proof-of-runnability token (§3.1).
type Schedulable = core.Schedulable

// SchedulableRef is the serialisable form of a Schedulable.
type SchedulableRef = core.SchedulableRef

// Env is the safe interface a module gets for kernel services (locks,
// timers, topology, time).
type Env = core.Env

// Locker is the lock handle Env.NewMutex returns.
type Locker = core.Locker

// PickError explains a rejected pick_next_task result. Each cause constant
// is an errors.Is-able sentinel (PickError implements error), so code that
// wraps a pick failure can be tested with errors.Is(err, enoki.PickStale).
type PickError = core.PickError

// Pick rejection causes (see PickError).
const (
	PickWrongCPU  = core.PickWrongCPU
	PickStale     = core.PickStale
	PickNotQueued = core.PickNotQueued
	PickConsumed  = core.PickConsumed
)

// Topology is the machine's scheduling-domain structure (sockets → LLC
// domains → cores), available to modules via Env.Topology.
type Topology = core.Topology

// Topology distances returned by Topology.Distance.
const (
	DistSameLLC   = core.DistSameLLC
	DistSameNode  = core.DistSameNode
	DistCrossNode = core.DistCrossNode
)

// TransferOut and TransferIn are the live-upgrade state capsules (§3.2).
type (
	TransferOut = core.TransferOut
	TransferIn  = core.TransferIn
)

// Hint and RevMessage are the user↔kernel communication payloads (§3.3).
type (
	Hint       = core.Hint
	RevMessage = core.RevMessage
)

// HintQueue and RevQueue are the boundary ring buffers.
type (
	HintQueue = core.HintQueue
	RevQueue  = core.RevQueue
)

// --- kernel substrate ---------------------------------------------------------

// Kernel is the simulated Linux scheduling core.
type Kernel = kernel.Kernel

// ShardedKernel is a machine under the deterministic epoch-merge executor:
// one shard spanning it (every System's default), or one sub-kernel per NUMA
// node (see WithShards).
type ShardedKernel = kernel.ShardedKernel

// Task is the simulated task_struct.
type Task = kernel.Task

// TaskState is a task's lifecycle state.
type TaskState = kernel.State

// Task lifecycle states.
const (
	StateNew      = kernel.StateNew
	StateRunnable = kernel.StateRunnable
	StateRunning  = kernel.StateRunning
	StateBlocked  = kernel.StateBlocked
	StateDead     = kernel.StateDead
)

// Action and Behavior define workload task bodies.
type (
	Action   = kernel.Action
	Behavior = kernel.Behavior
)

// BehaviorFunc adapts a function to Behavior.
type BehaviorFunc = kernel.BehaviorFunc

// Segment-completion operations for Action.Op.
const (
	OpContinue = kernel.OpContinue
	OpBlock    = kernel.OpBlock
	OpSleep    = kernel.OpSleep
	OpYield    = kernel.OpYield
	OpExit     = kernel.OpExit
)

// Machine and Costs describe the simulated host.
type (
	Machine = kernel.Machine
	Costs   = kernel.Costs
)

// CPUMask is a set of allowed CPUs.
type CPUMask = kernel.CPUMask

// Time is a virtual-time instant.
type Time = ktime.Time

// Rand is the deterministic random generator workloads use.
type Rand = ktime.Rand

// NewRand creates a seeded deterministic random stream.
func NewRand(seed uint64) *Rand { return ktime.NewRand(seed) }

// Engine is the discrete-event executor everything runs on.
type Engine = sim.Engine

// Class is a native scheduler class slot in the kernel's pick order; CFS
// and RT implement it, and Attach accepts it as a BuiltinClass source.
type Class = kernel.Class

// MachineNUMA builds a custom sockets×llcPerSocket×coresPerLLC machine.
func MachineNUMA(name string, sockets, llcPerSocket, coresPerLLC int) Machine {
	return kernel.MachineNUMA(name, sockets, llcPerSocket, coresPerLLC)
}

// Machine8 is the paper's 8-core one-socket machine.
func Machine8() Machine { return kernel.Machine8() }

// Machine80 is the paper's 80-core two-socket machine.
func Machine80() Machine { return kernel.Machine80() }

// DefaultCosts is the calibrated cost table.
func DefaultCosts() Costs { return kernel.DefaultCosts() }

// CostsFor calibrates costs for a machine.
func CostsFor(m Machine) Costs { return kernel.CostsFor(m) }

// NewCFS builds the native CFS baseline class, sharded over the kernel's
// scheduling domains.
func NewCFS(k *Kernel) *kernel.CFS { return kernel.NewCFS(k) }

// NewCFSFlat builds a CFS that ignores topology — one flat domain — as the
// baseline the NUMA experiments compare domain-aware CFS against.
func NewCFSFlat(k *Kernel) *kernel.CFS { return kernel.NewCFSFlat(k) }

// NewRT builds the native SCHED_FIFO/SCHED_RR real-time class (rrSlice 0
// uses Linux's 100ms default).
func NewRT(k *Kernel, rrSlice time.Duration) *kernel.RT { return kernel.NewRT(k, rrSlice) }

// RTParams configures a task's real-time priority for the RT class.
type RTParams = kernel.RTParams

// Spawn options re-exported for workload construction.
var (
	WithAffinity     = kernel.WithAffinity
	WithNice         = kernel.WithNice
	WithWakeObserver = kernel.WithWakeObserver
	WithExitObserver = kernel.WithExitObserver
	WithUserData     = kernel.WithUserData
)

// AllCPUs and SingleCPU build affinity masks.
var (
	AllCPUs   = kernel.AllCPUs
	SingleCPU = kernel.SingleCPU
)

// --- framework (Enoki-C) -------------------------------------------------------

// Adapter connects a loaded scheduler module to the kernel: registration,
// message dispatch, Schedulable validation, hint queues, live upgrade.
type Adapter = enokic.Adapter

// Config tunes framework costs.
type Config = enokic.Config

// UpgradeReport describes a completed live upgrade.
type UpgradeReport = enokic.UpgradeReport

// UserQueue is the userspace handle to a registered hint queue.
type UserQueue = enokic.UserQueue

// Tracer is the observability ring recording kernel and framework events;
// install one with NewSystem(WithTraceSink(...)). TraceEvent is one record.
type (
	Tracer     = trace.Tracer
	TraceEvent = trace.Event
)

// NewTracer creates a tracer with the given ring capacity.
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// WriteChromeTrace renders drained trace events as a Chrome/Perfetto JSON
// timeline.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return trace.WriteChrome(w, events)
}

// DefaultConfig returns the calibrated framework costs.
func DefaultConfig() Config { return enokic.DefaultConfig() }

// Typed load/upgrade failures, testable with errors.Is.
var (
	// ErrPolicyMismatch: the module's GetPolicy disagrees with the policy
	// it was loaded under.
	ErrPolicyMismatch = enokic.ErrPolicyMismatch
	// ErrDuplicatePolicy: the policy id already has a registered class.
	ErrDuplicatePolicy = enokic.ErrDuplicatePolicy
	// ErrModuleKilled: the module was killed by fault isolation.
	ErrModuleKilled = enokic.ErrModuleKilled
)

// Load constructs a scheduler module via factory and registers it with one
// kernel under the given policy number, panicking on failure. It is how a
// WithMachineModules setup builds the per-shard adapters it must return;
// everywhere a System exists, Attach with a GoModule source is the front
// door (typed errors, and the System's recorder and tracer installed).
func Load(k *Kernel, policy int, cfg Config, factory func(Env) Scheduler) *Adapter {
	return enokic.Load(k, policy, cfg, factory)
}

// --- verified tier (vpol) ------------------------------------------------------

// VProgram is a verified-tier policy: a register-machine bytecode program
// (see Assemble for the text format) that System.Attach(VerifiedProgram(p))
// verifies and mounts as a kernel class, interpreted directly in the pick
// path with no framework crossing.
type VProgram = vpol.Program

// VInst is one bytecode instruction of a VProgram.
type VInst = vpol.Inst

// VClass is a mounted verified-tier class; System.VerifiedClass returns it.
type VClass = vpol.Class

// VerifiedConfig tunes a verified-tier attachment (per-hook overhead,
// fallback policy for trap rehoming, initial queue capacity).
type VerifiedConfig = vpol.Config

// VerifiedFailure reports a verified class's death by runtime trap.
type VerifiedFailure = vpol.FailureReport

// Trap is the runtime fault class of a verified-tier failure.
type Trap = vpol.Trap

// Verified-tier runtime traps (see Trap).
const (
	TrapNone          = vpol.TrapNone
	TrapDivZero       = vpol.TrapDivZero
	TrapFuel          = vpol.TrapFuel
	TrapLoopDepth     = vpol.TrapLoopDepth
	TrapNoEnqueue     = vpol.TrapNoEnqueue
	TrapDoubleEnqueue = vpol.TrapDoubleEnqueue
)

// DefaultVerifiedConfig returns the calibrated verified-tier costs (~15 ns
// per hook) with CFS at policy 0 as the trap fallback.
func DefaultVerifiedConfig() VerifiedConfig { return vpol.DefaultConfig() }

// Assemble compiles verified-policy assembly text into a VProgram (not yet
// verified; Attach verifies, or call VerifyProgram directly).
func Assemble(src string) (*VProgram, error) { return vpol.Assemble(src) }

// MustAssemble is Assemble panicking on error, for static programs.
func MustAssemble(src string) *VProgram { return vpol.MustAssemble(src) }

// VerifyProgram runs the static verifier: register/program-size limits,
// bounded loops, all-paths-terminate, typed queue handles, hook-legal
// instructions. Attach calls it automatically; exposed for tooling.
func VerifyProgram(p *VProgram) error { return vpol.Verify(p) }

// EncodeProgram and DecodeProgram are the portable binary codec for
// VPrograms (e.g. to ship a program through a file or a hint queue).
func EncodeProgram(p *VProgram) []byte             { return vpol.Encode(p) }
func DecodeProgram(data []byte) (*VProgram, error) { return vpol.Decode(data) }

// Example verified policies: VFIFOSource is a single shared FIFO queue;
// VDualQueueSource is the paper's §1 priority dual-queue (negative-nice
// tasks in an express queue picked first). Assemble-ready text.
const (
	VFIFOSource      = vpol.FIFOSource
	VDualQueueSource = vpol.DualQueueSource
)

// VFIFOProgram and VDualQueueProgram return the assembled example programs.
func VFIFOProgram() *VProgram      { return vpol.FIFOProgram() }
func VDualQueueProgram() *VProgram { return vpol.DualQueueProgram() }
