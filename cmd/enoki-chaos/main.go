// Command enoki-chaos drives the deterministic chaos engine: seeded fault
// campaigns across every scheduler class, an always-on invariant oracle, and
// automatic minimization of failing seeds down to a replayable one-liner.
//
// Usage:
//
//	enoki-chaos [-runs N] [-seed S] [-class NAME] [-norollback] [-verified] [-v]
//	enoki-chaos -replay SPEC [-norollback] [-verified] [-leakshed]
//
// A campaign round-robins seeded single-machine fault schedules over the
// target classes (all of them by default) and judges every run with the
// invariant oracle. Each failure is shrunk to a minimal fault schedule and
// printed with the exact command that replays it:
//
//	enoki-chaos -replay v1:shinjuku:37467eec32c27644:2
//
// -replay takes a spec of any family — v1: single machine, f1: fleet machine
// kills, r1: faults under a canary rollout, t1: traffic shapes × faults —
// and exits 0 when the oracle passes, 1 when it fails, 2 on a malformed
// spec. Because the simulator is single-threaded over virtual time and every
// fault trigger is a seeded draw, a call count, or a virtual timestamp, the
// spec string is the entire reproducer — no transcript, no flake.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"enoki/internal/chaos"
)

// specShape is what -replay accepts: one spec of any family.
const specShape = "v1:|f1:|r1:|t1:<class>:<seed>:<mask>"

// replay is the road every spec family shares: parse the spec (exit 2 with
// the *SpecError on malformed input), run it under cfg, print the outcome
// and the oracle's verdict (exit 1 on violations).
func replay[E, C any, R chaos.Outcome](f *chaos.Family[E, C, R], spec string, cfg C, summary func(R) string, out, errw io.Writer) int {
	s, err := f.Parse(spec)
	if err != nil {
		fmt.Fprintf(errw, "enoki-chaos: %v\n", err)
		return 2
	}
	res := f.Run(s, cfg)
	fmt.Fprintf(out, "replay %s  class=%s  events=%v\n", s.Spec(), s.Class, s.Enabled())
	fmt.Fprintf(out, "  %s\n", summary(res))
	if !res.Failed() {
		fmt.Fprintln(out, "  oracle: PASS")
		return 0
	}
	fmt.Fprintln(out, "  oracle: FAIL")
	for _, v := range res.Violated() {
		fmt.Fprintf(out, "    violation: %s\n", v)
	}
	return 1
}

func summarizeSingle(r chaos.Result) string {
	s := fmt.Sprintf("completed %d/%d tasks, killed=%v, upgrades=%d", r.Completed, r.Tasks, r.Killed, len(r.Upgrades))
	if r.Failure != nil {
		s += fmt.Sprintf("\n  module failure: %s at %v", r.Failure.Fault, r.Failure.At)
	}
	return s
}

func summarizeFleet(r chaos.FleetOutcome) string {
	return fmt.Sprintf("jobs %d/%d done, %d placements lost, %d machines alive",
		r.Stats.Done, r.Stats.Submitted, r.Stats.Lost, r.Stats.MachinesAlive)
}

func summarizeRollout(r chaos.RolloutOutcome) string {
	return fmt.Sprintf("resolved=%v halted=%v completed=%v upgraded=%d rolledback=%d dead=%d, jobs %d/%d done",
		r.Resolved, r.Report.Halted, r.Report.Completed, r.Report.Upgraded, r.Report.RolledBack, r.Report.Dead,
		r.Stats.Done, r.Stats.Submitted)
}

func summarizeTraffic(r chaos.TrafficResult) string {
	n := r.Report.Total
	return fmt.Sprintf("conns=%d offered=%d admitted=%d shed=%d retried=%d dropped=%d killed=%v",
		r.Report.Connections, n.Offered, n.Admitted, n.Shed, n.Retried, n.Dropped, r.Killed)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("enoki-chaos", flag.ContinueOnError)
	fs.SetOutput(errw)
	runs := fs.Int("runs", 100, "number of seeded campaign runs")
	seed := fs.Uint64("seed", 1, "campaign master seed")
	class := fs.String("class", "", "restrict to one scheduler class (default: all, round-robin)")
	replaySpec := fs.String("replay", "", "replay one spec ("+specShape+") instead of a campaign")
	noRollback := fs.Bool("norollback", false, "disable transactional upgrade rollback (the v1: seeded-bug configuration)")
	leakShed := fs.Bool("leakshed", false, "plant the shed-accounting leak (the t1: seeded-bug configuration)")
	verified := fs.Bool("verified", false, "mount the verified-bytecode tier above each class under test (v1:)")
	maxFailures := fs.Int("maxfailures", 3, "stop the campaign after minimizing this many failures")
	verbose := fs.Bool("v", false, "print one line per campaign run")
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: enoki-chaos [-runs N] [-seed S] [-class NAME] [-norollback] [-verified] [-v]\n"+
			"       enoki-chaos -replay SPEC [-norollback] [-verified] [-leakshed]\n\n"+
			"specs:   %s (single machine, fleet, rollout, traffic)\n"+
			"classes: %s\n", specShape, strings.Join(chaos.ClassNames(), " "))
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	rc := chaos.RunConfig{NoRollback: *noRollback, VerifiedTier: *verified}

	// The plane table: -replay dispatches on the spec prefix; each family
	// reads the switches it owns (fleet and rollout replay the serial drive).
	if spec := *replaySpec; spec != "" {
		switch prefix, _, _ := strings.Cut(spec, ":"); prefix {
		case chaos.Single.Prefix:
			return replay(chaos.Single, spec, rc, summarizeSingle, out, errw)
		case chaos.Fleet.Prefix:
			return replay(chaos.Fleet, spec, false, summarizeFleet, out, errw)
		case chaos.Rollout.Prefix:
			return replay(chaos.Rollout, spec, chaos.RolloutRunConfig{}, summarizeRollout, out, errw)
		case chaos.Traffic.Prefix:
			return replay(chaos.Traffic, spec, chaos.TrafficRunConfig{LeakShed: *leakShed}, summarizeTraffic, out, errw)
		}
		fmt.Fprintf(errw, "enoki-chaos: %v\n", &chaos.SpecError{Spec: spec, Field: "shape", Msg: "want " + specShape})
		return 2
	}

	cfg := chaos.CampaignConfig[chaos.RunConfig]{
		Runs:        *runs,
		Seed:        *seed,
		MaxFailures: *maxFailures,
		Run:         rc,
	}
	if *class != "" {
		cfg.Classes = []string{*class}
	}
	if *verbose {
		cfg.Progress = func(line string) { fmt.Fprintln(out, line) }
	}
	res := chaos.Single.Campaign(cfg)
	fmt.Fprintf(out, "campaign: %d runs, %d failures (seed %#x)\n", res.Runs, len(res.Failures), *seed)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "\nFAIL %s\n", f.Result.Schedule.Spec())
		fmt.Fprintf(out, "  events:    %v\n", f.Result.Schedule.Enabled())
		fmt.Fprintf(out, "  minimized: %v\n", f.Minimized.Enabled())
		for _, v := range f.MinResult.Violations {
			fmt.Fprintf(out, "  violation: %s\n", v)
		}
		fmt.Fprintf(out, "  reproduce: %s\n", f.Replay)
	}
	if !res.OK() {
		return 1
	}
	return 0
}
