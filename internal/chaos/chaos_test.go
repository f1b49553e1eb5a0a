package chaos

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestGenerateDeterministic pins the property the whole engine rests on:
// Generate is a pure function of (seed, class), so a spec string alone can
// reconstruct a fault plan months later.
func TestGenerateDeterministic(t *testing.T) {
	for _, class := range ClassNames() {
		a := Single.Generate(42, class)
		b := Single.Generate(42, class)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Single.Generate(42) differs across calls:\n%+v\n%+v", class, a, b)
		}
		if n := len(a.Events); n < 2 || n > 5 {
			t.Errorf("%s: generated %d events, want 2..5", class, n)
		}
		if want := uint64(1)<<uint(len(a.Events)) - 1; a.Mask != want {
			t.Errorf("%s: fresh schedule mask %x, want all-enabled %x", class, a.Mask, want)
		}
	}
}

// TestGenerateRespectsClassCapabilities: the CFS baseline has no module to
// sabotage and non-hint classes have no ring to storm, so those planes must
// never be drawn for them.
func TestGenerateRespectsClassCapabilities(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for _, ev := range Single.Generate(seed, "cfs").Events {
			switch ev.Plane {
			case PlaneIPIDrop, PlaneIPIDelay, PlaneIPIDup, PlaneTimerSkew:
			default:
				t.Fatalf("seed %d: module plane %v generated for moduleless cfs", seed, ev.Plane)
			}
		}
		for _, ev := range Single.Generate(seed, "wfq").Events {
			if ev.Plane == PlaneHintStorm {
				t.Fatalf("seed %d: hint storm generated for hintless wfq", seed)
			}
		}
	}
}

// TestSpecRoundTrip: Spec → ParseSpec reconstructs the schedule exactly,
// including a minimizer-narrowed mask, and malformed specs are rejected.
func TestSpecRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		for _, class := range []string{"cfs", "wfq", "shinjuku", "arbiter"} {
			s := Single.Generate(seed, class)
			s.Mask &= 0b101 // a partial mask, as the minimizer would leave
			got, err := Single.Parse(s.Spec())
			if err != nil {
				t.Fatalf("Single.Parse(%q): %v", s.Spec(), err)
			}
			if !reflect.DeepEqual(got, s) {
				t.Fatalf("round trip of %q:\n got %+v\nwant %+v", s.Spec(), got, s)
			}
		}
	}
}

// TestRunDeterministic: one schedule, two runs, identical Results down to the
// record-log bytes — the engine's reproducibility claim, mechanically checked.
func TestRunDeterministic(t *testing.T) {
	s := Single.Generate(7, "wfq")
	a := Single.Run(s, RunConfig{})
	b := Single.Run(s, RunConfig{})
	if a.Completed != b.Completed || a.Killed != b.Killed {
		t.Errorf("runs diverged: completed %d/%d killed %v/%v",
			a.Completed, b.Completed, a.Killed, b.Killed)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Errorf("verdicts diverged: %v vs %v", a.Violations, b.Violations)
	}
	if len(a.RecordLog) == 0 {
		t.Fatal("run produced no record log")
	}
	if !bytes.Equal(a.RecordLog, b.RecordLog) {
		t.Errorf("record logs differ across identical runs: %d vs %d bytes",
			len(a.RecordLog), len(b.RecordLog))
	}
}

// TestCampaignAllClassesClean is the acceptance gate: a ≥500-run seeded
// campaign round-robining every scheduler class, every fault plane enabled,
// judged by the oracle — and the shipped configuration survives all of it.
func TestCampaignAllClassesClean(t *testing.T) {
	runs := 550
	if testing.Short() {
		runs = 77
	}
	res := Single.Campaign(CampaignConfig[RunConfig]{Runs: runs, Seed: 0xe120c1})
	if res.Runs != runs {
		t.Errorf("campaign stopped early: %d of %d runs", res.Runs, runs)
	}
	for _, f := range res.Failures {
		t.Errorf("FAIL %s\n  minimized: %v\n  violations: %v\n  reproduce: %s",
			f.Result.Schedule.Spec(), f.Minimized.Enabled(), f.MinResult.Violations, f.Replay)
	}
}

// TestSeededRollbackBugCaughtAndMinimized runs the campaign against the
// deliberately seeded bug — transactional rollback disabled, so a faulty
// upgrade kills the module — and requires the engine to (1) catch it, (2)
// shrink the failing schedule to ≤5 events, (3) hand back a spec that still
// reproduces under ParseSpec, and (4) show the shipped rollback configuration
// passes the very same schedule.
func TestSeededRollbackBugCaughtAndMinimized(t *testing.T) {
	buggy := RunConfig{NoRollback: true}
	res := Single.Campaign(CampaignConfig[RunConfig]{Runs: 60, Seed: 0xbadcafe, MaxFailures: 1, Run: buggy})
	if len(res.Failures) == 0 {
		t.Fatalf("campaign (%d runs) never caught the seeded rollback bug", res.Runs)
	}
	f := res.Failures[0]
	if n := f.Minimized.EnabledCount(); n > 5 {
		t.Errorf("minimized to %d events, want ≤5: %v", n, f.Minimized.Enabled())
	}
	hasUpgradeKill := false
	for _, ev := range f.Minimized.Enabled() {
		if ev.Plane == PlaneUpgradeKill {
			hasUpgradeKill = true
		}
	}
	if !hasUpgradeKill {
		t.Errorf("minimized schedule lost the causal event: %v", f.Minimized.Enabled())
	}
	if !strings.Contains(f.Replay, "-norollback") {
		t.Errorf("reproducer %q does not carry the buggy configuration", f.Replay)
	}

	// The one-liner is the whole reproducer: parse it back and re-run.
	replayed, err := Single.Parse(f.Minimized.Spec())
	if err != nil {
		t.Fatalf("minimized spec does not parse: %v", err)
	}
	if r := Single.Run(replayed, buggy); !r.Failed() {
		t.Error("replayed minimized spec no longer fails under the buggy config")
	}
	if r := Single.Run(replayed, RunConfig{}); r.Failed() {
		t.Errorf("transactional rollback does not fix the minimized schedule: %v", r.Violations)
	}
}

// TestHintStormDropsAccounted pins the drop-accounting invariant where drops
// are guaranteed: the module is first killed by a permanent stall (a
// kill-justifying plane), then a 40-hint storm hits the orphaned capacity-8
// ring. Eight pushes land, the rest must surface as counted drops — and the
// oracle must accept the run, because shedding is not a correctness breach.
func TestHintStormDropsAccounted(t *testing.T) {
	s := Schedule[Event]{
		Seed:  99,
		Class: "arbiter",
		Events: []Event{
			{Plane: PlaneStall, At: int64(time.Millisecond)}, // Dur 0: permanent
			{Plane: PlaneHintStorm, At: int64(40 * time.Millisecond), Count: 40},
		},
		Mask: 0b11,
	}
	r := Single.Run(s, RunConfig{})
	if r.Failed() {
		t.Fatalf("storm-after-kill run failed the oracle: %v", r.Violations)
	}
	if !r.Killed {
		t.Fatal("permanent stall did not kill the module")
	}
	if r.HintAttempts != 40 {
		t.Fatalf("storm pushed %d hints, want 40", r.HintAttempts)
	}
	if r.Stats.HintsDropped == 0 {
		t.Error("no counted drops from 40 pushes into an undrained capacity-8 ring")
	}
	if got := r.Stats.HintsDelivered + r.Stats.HintsDropped; got != r.HintAttempts {
		t.Errorf("accounting leak: %d delivered + %d dropped != %d attempts",
			r.Stats.HintsDelivered, r.Stats.HintsDropped, r.HintAttempts)
	}
}

// TestHintStormHealthyModuleDeliversAll is the complementary case: a live
// module drains each notification synchronously, so the same storm sheds
// nothing and every push is counted delivered.
func TestHintStormHealthyModuleDeliversAll(t *testing.T) {
	s := Schedule[Event]{
		Seed:  99,
		Class: "arbiter",
		Events: []Event{
			{Plane: PlaneHintStorm, At: int64(5 * time.Millisecond), Count: 40},
		},
		Mask: 0b1,
	}
	r := Single.Run(s, RunConfig{})
	if r.Failed() {
		t.Fatalf("healthy storm run failed the oracle: %v", r.Violations)
	}
	if r.Killed {
		t.Fatal("hint storm killed the module")
	}
	if r.Stats.HintsDropped != 0 {
		t.Errorf("healthy module dropped %d hints", r.Stats.HintsDropped)
	}
	if r.Stats.HintsDelivered < r.HintAttempts {
		t.Errorf("delivered %d of %d storm hints", r.Stats.HintsDelivered, r.HintAttempts)
	}
}

// TestMinimizeIsGreedyStable: minimizing an already-minimal failing schedule
// returns it unchanged, and minimizing a passing schedule is the identity.
func TestMinimizeIsGreedyStable(t *testing.T) {
	pass := Single.Generate(3, "fifo")
	min, res := Single.Minimize(pass, RunConfig{})
	if res.Failed() {
		t.Fatalf("seed 3 fifo unexpectedly fails: %v", res.Violations)
	}
	if min.Mask != pass.Mask {
		t.Errorf("Minimize narrowed a passing schedule: %x → %x", pass.Mask, min.Mask)
	}
}
