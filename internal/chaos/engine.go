package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"enoki/internal/ktime"
)

// Schedule is one run's fault plan: the family prefix and class it targets,
// the seed every draw in the run derives from, the generated events, and an
// enable mask the minimizer clears bits in. Generators cap events well below
// 64 so the mask fits a uint64 and the whole failing run round-trips through
// the spec string.
type Schedule[E any] struct {
	Prefix string
	Seed   uint64
	Class  string
	Events []E
	Mask   uint64
}

// EnabledAt reports whether event i survives the mask.
func (s Schedule[E]) EnabledAt(i int) bool { return s.Mask>>uint(i)&1 == 1 }

// EnabledCount counts surviving events.
func (s Schedule[E]) EnabledCount() int { return len(s.Enabled()) }

// Enabled returns the surviving events, for reporting.
func (s Schedule[E]) Enabled() []E {
	out := make([]E, 0, len(s.Events))
	for i, ev := range s.Events {
		if s.EnabledAt(i) {
			out = append(out, ev)
		}
	}
	return out
}

// Spec renders the schedule as its replay string
// (<prefix>:<class>:<seed hex>:<mask hex>). Because every generator is a
// pure function of (seed, class), seed + mask reconstructs the exact fault
// plan: the spec is the whole reproducer.
func (s Schedule[E]) Spec() string {
	return fmt.Sprintf("%s:%s:%x:%x", s.Prefix, s.Class, s.Seed, s.Mask)
}

// SpecError is the typed failure Parse returns for malformed input: which
// spec, which field ("shape", "class", "seed", "mask"), and why. Callers can
// errors.As on it to distinguish a bad spec from an infrastructure error.
type SpecError struct {
	Spec  string
	Field string
	Msg   string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("chaos: bad %s in spec %q: %s", e.Field, e.Spec, e.Msg)
}

// Verdict is the oracle's judgement, embedded in every family's outcome:
// empty means the run upheld every invariant.
type Verdict struct{ Violations []string }

// Failed reports whether the oracle found any invariant breach.
func (v Verdict) Failed() bool { return len(v.Violations) > 0 }

// Violated returns the violations (generic code cannot name the field).
func (v Verdict) Violated() []string { return v.Violations }

// Outcome is what a family's runner returns: its own observations around an
// embedded Verdict.
type Outcome interface {
	Failed() bool
	Violated() []string
}

// Family describes one spec family to the engine: E is its event type, C its
// run configuration, R its outcome. The four instances are Single, Fleet,
// Rollout and Traffic.
type Family[E, C any, R Outcome] struct {
	// Prefix is the spec family tag ("v1", "f1", "r1", "t1").
	Prefix string
	// Run executes one schedule under a configuration and judges the outcome
	// with the family's oracle. Deterministic end to end: same schedule +
	// same config → same outcome, record-log bytes included.
	Run func(Schedule[E], C) R
	// events derives the fault plan — a pure function of (seed, class).
	events func(seed uint64, class string) []E
	// needsModule is the class-admission rule: the family only runs against
	// classes with an upgradable module.
	needsModule bool
	// flags renders a configuration's CLI switches for ReplayCommand (nil
	// when the CLI exposes none for the family).
	flags func(C) string
}

// Generate derives the family's schedule for (seed, class), every event
// enabled.
func (f *Family[E, C, R]) Generate(seed uint64, class string) Schedule[E] {
	evs := f.events(seed, class)
	return Schedule[E]{Prefix: f.Prefix, Seed: seed, Class: class, Events: evs, Mask: 1<<uint(len(evs)) - 1}
}

// Parse reconstructs a schedule from a replay spec, regenerating the events
// from the seed and applying the mask. A spec string is untrusted input (a CI
// log, a bug report, a shell history), so every malformation is refused with
// a *SpecError, never a panic — mask bits beyond the generated events
// included: truncating them would replay a different, smaller fault plan and
// still claim to be the reproducer.
func (f *Family[E, C, R]) Parse(spec string) (Schedule[E], error) {
	bad := func(field, format string, args ...any) (Schedule[E], error) {
		return Schedule[E]{}, &SpecError{Spec: spec, Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 4 || parts[0] != f.Prefix {
		return bad("shape", "want %s:<class>:<seed>:<mask>", f.Prefix)
	}
	class := parts[1]
	if class == "" {
		return bad("class", "empty")
	}
	seed, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return bad("seed", "%s", err)
	}
	mask, err := strconv.ParseUint(parts[3], 16, 64)
	if err != nil {
		return bad("mask", "%s", err)
	}
	c, ok := caseByName(class)
	if !ok {
		return bad("class", "unknown class %q", class)
	}
	if f.needsModule && c.NewModule == nil {
		return bad("class", "class %q has no upgradable module", class)
	}
	s := f.Generate(seed, class)
	if mask&^s.Mask != 0 {
		return bad("mask", "mask %x has bits beyond the %d generated events", mask, len(s.Events))
	}
	s.Mask = mask
	return s, nil
}

// Minimize shrinks a failing schedule to a minimal reproducer: a greedy
// ddmin over the event mask that repeatedly re-runs the schedule with one
// more event disabled and keeps any subset that still fails the oracle,
// until no single event can be removed. Because a run is a pure function of
// (schedule, config), the result is deterministic and the surviving mask —
// not a transcript — is the whole reproducer.
//
// Minimize accepts any failure as "the" failure (classic ddmin); a shrink
// that trades one violation for another still shrinks the search space a
// human has to read.
func (f *Family[E, C, R]) Minimize(s Schedule[E], cfg C) (Schedule[E], R) {
	res := f.Run(s, cfg)
	if !res.Failed() {
		return s, res
	}
	for changed := true; changed; {
		changed = false
		for i := range s.Events {
			if !s.EnabledAt(i) || s.EnabledCount() == 1 {
				continue
			}
			trial := s
			trial.Mask &^= 1 << uint(i)
			if tr := f.Run(trial, cfg); tr.Failed() {
				s, res = trial, tr
				changed = true
			}
		}
	}
	return s, res
}

// ReplayCommand renders the one-liner that reproduces a schedule with the
// enoki-chaos CLI, seeded-bug switches included.
func (f *Family[E, C, R]) ReplayCommand(s Schedule[E], cfg C) string {
	cmd := "enoki-chaos -replay " + s.Spec()
	if f.flags != nil {
		cmd += f.flags(cfg)
	}
	return cmd
}

// flagIf is a CLI switch when on, nothing otherwise.
func flagIf(on bool, flag string) string {
	if on {
		return flag
	}
	return ""
}

// CampaignConfig drives a multi-run chaos campaign.
type CampaignConfig[C any] struct {
	// Runs is how many seeded schedules to execute (default 100).
	Runs int
	// Seed roots the campaign; every run's schedule seed derives from it.
	Seed uint64
	// Classes restricts the classes exercised (default: all of them,
	// round-robin — name the module classes for a family that needs one).
	Classes []string
	// MaxFailures stops the campaign after minimizing this many distinct
	// failing runs (default 3): minimization re-runs schedules, so an
	// everything-is-broken configuration should fail fast, not grind.
	MaxFailures int
	// Run configures the individual runs (seeded bugs, tiers, drives).
	Run C
	// Progress, when set, receives one line per completed run.
	Progress func(string)
}

// Failure is one failing campaign run, minimized.
type Failure[E any, R Outcome] struct {
	// Result is the original failing run.
	Result R
	// Minimized is the shrunk schedule and its (still failing) run.
	Minimized Schedule[E]
	MinResult R
	// Replay is the one-line reproducer command.
	Replay string
}

// CampaignResult summarises a campaign.
type CampaignResult[E any, R Outcome] struct {
	Runs     int
	Failures []Failure[E, R]
}

// OK reports a clean campaign.
func (c *CampaignResult[E, R]) OK() bool { return len(c.Failures) == 0 }

// Campaign runs cfg.Runs seeded schedules round-robin across the target
// classes, minimizing every failure it finds. The campaign itself is
// deterministic: the master seed fixes each run's class and schedule, so a
// campaign that found a bug is as replayable as any single run.
func (f *Family[E, C, R]) Campaign(cfg CampaignConfig[C]) CampaignResult[E, R] {
	if cfg.Runs == 0 {
		cfg.Runs = 100
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 3
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = ClassNames()
	}
	master := ktime.NewRand(cfg.Seed)
	out := CampaignResult[E, R]{}
	for i := 0; i < cfg.Runs; i++ {
		class := classes[i%len(classes)]
		sch := f.Generate(master.Uint64(), class)
		res := f.Run(sch, cfg.Run)
		out.Runs++
		if cfg.Progress != nil {
			status := "ok"
			if res.Failed() {
				status = fmt.Sprintf("FAIL (%d violations)", len(res.Violated()))
			}
			cfg.Progress(fmt.Sprintf("run %3d %-10s %-32s %s", i, class, sch.Spec(), status))
		}
		if !res.Failed() {
			continue
		}
		min, minRes := f.Minimize(sch, cfg.Run)
		out.Failures = append(out.Failures, Failure[E, R]{
			Result:    res,
			Minimized: min,
			MinResult: minRes,
			Replay:    f.ReplayCommand(min, cfg.Run),
		})
		if len(out.Failures) >= cfg.MaxFailures {
			break
		}
	}
	return out
}
