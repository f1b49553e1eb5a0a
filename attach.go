package enoki

import (
	"errors"
	"fmt"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/vpol"
)

// PolicySource describes where a scheduling policy's implementation comes
// from — one of the three tiers of the policy spectrum:
//
//   - GoModule: a full Enoki scheduler module behind the message-crossing
//     framework (~100-150 ns per hook, live upgrade, record/replay).
//   - VerifiedProgram: a statically verified bytecode program interpreted
//     directly inside the kernel pick path (~15 ns per hook, no crossing).
//   - BuiltinClass: a native Go kernel.Class (CFS, RT, or custom), no
//     framework involvement at all.
//
// Every source attaches through the same call, System.Attach. The interface
// is sealed: the only implementations are the three constructors here.
type PolicySource interface {
	// attach installs the source under policy and returns the module
	// adapter when the source is a module tier (nil for the other tiers).
	attach(s *System, policy int) (*Adapter, error)
	// Tier names the crossing tier this source attaches at: "module",
	// "verified", or "builtin".
	Tier() string
}

// Attach installs a policy implementation under the given policy id. It is
// the single entry point for all three tiers:
//
//	sys.MustAttach(2, enoki.GoModule(newMySched))       // module tier
//	sys.MustAttach(1, enoki.VerifiedProgram(prog))      // verified tier
//	sys.MustAttach(0, enoki.BuiltinClass(cfs))          // builtin tier
//
// Attachment order is priority order. Failures are typed:
// errors.Is(err, ErrDuplicatePolicy)
// when the policy id is taken, errors.Is(err, ErrPolicyMismatch) when a
// module's GetPolicy disagrees, errors.Is(err, ErrSystemClosed) after Close.
// The returned Adapter is non-nil only for GoModule sources; reach a
// verified tier's class with VerifiedClass.
//
// GoModule and VerifiedProgram attach one instance per shard, and an error
// on a System of several shards names the shard. BuiltinClass needs one
// shard, because a Class instance binds to one kernel (on several, register
// per ShardKernel, or use RegisterCFS).
func (s *System) Attach(policy int, src PolicySource) (*Adapter, error) {
	if s.closed {
		return nil, fmt.Errorf("enoki: Attach after Close: %w", ErrSystemClosed)
	}
	if src == nil {
		return nil, errors.New("enoki: Attach with nil PolicySource")
	}
	return src.attach(s, policy)
}

// eachShard runs attach on every shard's kernel in order, stopping at the
// first error, which it prefixes with the shard when there are several.
func (s *System) eachShard(attach func(k *kernel.Kernel) error) error {
	for i := 0; i < s.NumShards(); i++ {
		if err := attach(s.ShardKernel(i)); err != nil {
			if s.NumShards() > 1 {
				err = fmt.Errorf("shard %d: %w", i, err)
			}
			return err
		}
	}
	return nil
}

// MustAttach is Attach panicking on error, for mains and tests.
func (s *System) MustAttach(policy int, src PolicySource) *Adapter {
	ad, err := s.Attach(policy, src)
	if err != nil {
		panic(fmt.Sprintf("enoki: %v", err))
	}
	return ad
}

// VerifiedClass returns the verified-tier class attached under policy via
// VerifiedProgram, or nil: shard 0's instance when there are several.
func (s *System) VerifiedClass(policy int) *VClass { return s.verified[policy] }

// --- module tier -------------------------------------------------------------

// GoModule is the module-tier PolicySource: factory constructs the scheduler,
// which runs behind the full Enoki-C message crossing with fault isolation,
// live upgrade, hint queues, and record/replay support.
func GoModule(factory func(Env) Scheduler) PolicySource {
	return goModuleSource{factory: factory}
}

type goModuleSource struct {
	factory func(Env) Scheduler
}

func (goModuleSource) Tier() string { return "module" }

func (g goModuleSource) attach(s *System, policy int) (*Adapter, error) {
	if g.factory == nil {
		return nil, errors.New("enoki: GoModule with nil factory")
	}
	var first *Adapter
	err := s.eachShard(func(k *kernel.Kernel) error {
		ad, err := enokic.TryLoad(k, policy, s.cfg, g.factory)
		if err != nil {
			return err
		}
		s.adapters = append(s.adapters, ad)
		if s.tracer != nil {
			ad.SetTracer(s.tracer)
		}
		if s.recorder != nil {
			ad.SetRecorder(s.recorder)
		}
		if first == nil {
			first = ad
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.afterRegister()
	return first, nil
}

// --- verified tier -----------------------------------------------------------

// VerifiedProgram is the verified-tier PolicySource: prog is verified
// (bounded loops, typed queue handles, no allocation) and interpreted in the
// kernel pick path with DefaultVerifiedConfig costs. Runtime traps kill the
// class and rehome its tasks to the fallback policy, mirroring module fault
// isolation.
func VerifiedProgram(prog *VProgram) PolicySource {
	return verifiedSource{prog: prog, cfg: vpol.DefaultConfig()}
}

// VerifiedProgramWith is VerifiedProgram with explicit verified-tier costs
// and fallback configuration.
func VerifiedProgramWith(prog *VProgram, cfg VerifiedConfig) PolicySource {
	return verifiedSource{prog: prog, cfg: cfg}
}

type verifiedSource struct {
	prog *vpol.Program
	cfg  vpol.Config
}

func (verifiedSource) Tier() string { return "verified" }

func (v verifiedSource) attach(s *System, policy int) (*Adapter, error) {
	if v.prog == nil {
		return nil, errors.New("enoki: VerifiedProgram with nil program")
	}
	var first *vpol.Class
	err := s.eachShard(func(k *kernel.Kernel) error {
		if k.ClassByID(policy) != nil {
			return fmt.Errorf("enoki: Attach policy %d: %w", policy, ErrDuplicatePolicy)
		}
		c, err := vpol.Load(k, policy, v.prog, v.cfg)
		if first == nil {
			first = c
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	s.afterRegister()
	if s.verified == nil {
		s.verified = make(map[int]*vpol.Class)
	}
	s.verified[policy] = first
	return nil, nil
}

// --- builtin tier ------------------------------------------------------------

// BuiltinClass is the builtin-tier PolicySource: c is registered directly in
// the kernel's pick order with no framework crossing. A Class instance binds
// to one kernel, so this source needs a one-shard System — on several,
// register per ShardKernel, or use RegisterCFS, which builds one per shard.
func BuiltinClass(c Class) PolicySource {
	return builtinSource{c: c, shard: -1}
}

type builtinSource struct {
	c kernel.Class
	// shard is the shard c binds to (RegisterCFS), or -1 for the System's
	// one shard.
	shard int
}

func (builtinSource) Tier() string { return "builtin" }

func (b builtinSource) attach(s *System, policy int) (*Adapter, error) {
	if b.c == nil {
		return nil, errors.New("enoki: BuiltinClass with nil Class")
	}
	i := b.shard
	if i < 0 {
		if s.NumShards() > 1 {
			return nil, errors.New("enoki: BuiltinClass binds one Class to one kernel; with several shards register per ShardKernel (or use RegisterCFS)")
		}
		i = 0
	}
	k := s.ShardKernel(i)
	if k.ClassByID(policy) != nil {
		return nil, fmt.Errorf("enoki: Attach policy %d: %w", policy, ErrDuplicatePolicy)
	}
	k.RegisterClass(policy, b.c)
	s.afterRegister()
	return nil, nil
}
