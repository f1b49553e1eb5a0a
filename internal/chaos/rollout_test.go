package chaos

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"enoki/internal/cluster"
)

// rolloutSpec is the pinned rollout-fault reproducer: two machine kills
// plus a faulty new generation above a threshold, landing while the canary
// waves are in flight. The clean machinery halts the rollout and rolls the
// fleet back; the whole scenario replays from this one line. The seed was
// chosen so at least one kill hits a machine already claimed by a wave; if
// GenerateRollout's draw logic changes, re-pick a seed with the same
// property.
const rolloutSpec = "r1:wfq:9:7"

// TestRolloutCampaignReplayFromSpec is the rollout chaos gate: the
// one-line spec reconstructs the exact fault plan, the campaign halts and
// rolls back under it without violating any oracle rule, and the serial
// and worker-goroutine drives of the same spec agree on every outcome and
// every record-log byte.
func TestRolloutCampaignReplayFromSpec(t *testing.T) {
	s, err := Rollout.Parse(rolloutSpec)
	if err != nil {
		t.Fatalf("Rollout.Parse(%q): %v", rolloutSpec, err)
	}
	if got := s.Spec(); got != rolloutSpec {
		t.Fatalf("spec round-trip: %q -> %q", rolloutSpec, got)
	}
	if len(s.Enabled()) != 3 {
		t.Fatalf("spec %q enables %d events, want 3", rolloutSpec, len(s.Enabled()))
	}

	serial := Rollout.Run(s, RolloutRunConfig{})
	par := Rollout.Run(s, RolloutRunConfig{Parallel: true})

	for _, v := range serial.Violations {
		t.Errorf("serial: %s", v)
	}
	for _, v := range par.Violations {
		t.Errorf("parallel: %s", v)
	}
	if serial.Stats != par.Stats {
		t.Fatalf("stats diverge:\nserial   %+v\nparallel %+v", serial.Stats, par.Stats)
	}
	if !reflect.DeepEqual(serial.Report, par.Report) {
		t.Fatalf("rollout reports diverge:\nserial   %+v\nparallel %+v", serial.Report, par.Report)
	}
	if !reflect.DeepEqual(serial.Slots, par.Slots) {
		t.Fatalf("slot states diverge:\nserial   %+v\nparallel %+v", serial.Slots, par.Slots)
	}
	for i := range serial.Jobs {
		if serial.Jobs[i] != par.Jobs[i] {
			t.Fatalf("job %d diverges:\nserial   %+v\nparallel %+v", i, serial.Jobs[i], par.Jobs[i])
		}
	}
	total := 0
	for mi := range serial.Logs {
		for sh := range serial.Logs[mi] {
			if !bytes.Equal(serial.Logs[mi][sh], par.Logs[mi][sh]) {
				t.Fatalf("machine %d shard %d: record logs diverge (%d vs %d bytes)",
					mi, sh, len(serial.Logs[mi][sh]), len(par.Logs[mi][sh]))
			}
			total += len(serial.Logs[mi][sh])
		}
	}
	if total == 0 {
		t.Fatal("record logs are empty — modules saw no scheduling traffic")
	}
	// The replay must exercise the halt-and-rollback path, or the identity
	// proves nothing about the rollout machinery.
	if !serial.Report.Halted || serial.Report.RolledBack == 0 || serial.Report.Dead == 0 {
		t.Fatalf("pinned spec no longer halts with deaths and rollbacks: %+v", serial.Report)
	}
}

// TestRolloutCampaignCleanSweep runs a seeded campaign across three module
// classes with the fix in place: every run must uphold every oracle rule,
// and collectively the sweep must exercise both halted and completed
// rollouts so the rules are not passing vacuously.
func TestRolloutCampaignCleanSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep is seconds of work; skipped in -short")
	}
	classes := []string{"fifo", "wfq", "shinjuku"}
	halted, completed := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		class := classes[int(seed)%len(classes)]
		s := Rollout.Generate(seed, class)
		r := Rollout.Run(s, RolloutRunConfig{})
		for _, v := range r.Violations {
			t.Errorf("seed %x class %s (%s): %s", seed, class, s.Spec(), v)
		}
		if r.Report.Halted {
			halted++
		}
		if r.Report.Completed {
			completed++
		}
	}
	if halted == 0 || completed == 0 {
		t.Fatalf("sweep outcomes not diverse: %d halted, %d completed — the oracle is passing vacuously", halted, completed)
	}
}

// TestRolloutCampaignCatchesSeededBug is the conformance contract for the
// whole plane: with the death-resolution fix disabled, a seeded campaign
// must produce failures, and every failure must ddmin-minimize to a
// one-line r1: spec that reproduces the same oracle verdict.
func TestRolloutCampaignCatchesSeededBug(t *testing.T) {
	if testing.Short() {
		t.Skip("minimization re-runs campaigns; skipped in -short")
	}
	rc := RolloutRunConfig{NoDeathResolve: true}
	caught := 0
	for seed := uint64(1); seed <= 9 && caught < 2; seed++ {
		s := Rollout.Generate(seed, "wfq")
		r := Rollout.Run(s, rc)
		if !r.Failed() {
			continue // this seed's kills missed every in-flight wave slot
		}
		caught++
		min, minRes := Rollout.Minimize(s, rc)
		if !minRes.Failed() {
			t.Fatalf("seed %x: minimized schedule no longer fails", seed)
		}
		// The hang needs exactly one event: the kill that strands the wave.
		if min.EnabledCount() != 1 {
			t.Errorf("seed %x: minimized to %d events (%v), want 1", seed, min.EnabledCount(), min.Enabled())
		}
		if min.Enabled()[0].Plane != PlaneRolloutKill {
			t.Errorf("seed %x: minimal event is %v, want a rollout kill", seed, min.Enabled()[0])
		}
		// The one-line spec alone reproduces the same verdict.
		replay, err := Rollout.Parse(min.Spec())
		if err != nil {
			t.Fatalf("seed %x: minimized spec %q does not parse: %v", seed, min.Spec(), err)
		}
		rr := Rollout.Run(replay, rc)
		if !reflect.DeepEqual(rr.Violations, minRes.Violations) {
			t.Errorf("seed %x: replayed verdict diverges:\nminimized %v\nreplayed  %v",
				seed, minRes.Violations, rr.Violations)
		}
		// And with the fix back in place the same spec passes clean —
		// pinning that the oracle blamed the bug, not the fault plan.
		if fixed := Rollout.Run(replay, RolloutRunConfig{}); fixed.Failed() {
			t.Errorf("seed %x: fixed machinery still fails minimized spec %q: %v",
				seed, min.Spec(), fixed.Violations)
		}
	}
	if caught == 0 {
		t.Fatal("no seed produced a failure under the seeded bug — the campaign has lost its teeth")
	}
}

// TestRolloutCampaignSlotBalance spot-checks the balance rule's inputs on
// a halting run: final slot states are terminal and each report count
// matches its slot population.
func TestRolloutCampaignSlotBalance(t *testing.T) {
	s, err := Rollout.Parse(rolloutSpec)
	if err != nil {
		t.Fatal(err)
	}
	r := Rollout.Run(s, RolloutRunConfig{})
	if !r.Resolved {
		t.Fatal("campaign rollout unresolved")
	}
	counts := map[cluster.SlotState]int{}
	for _, sl := range r.Slots {
		counts[sl.State]++
	}
	if counts[cluster.SlotUpgrading]+counts[cluster.SlotObserving]+
		counts[cluster.SlotRollingBack]+counts[cluster.SlotFailed] != 0 {
		t.Fatalf("transient slot states at resolution: %v", counts)
	}
	if counts[cluster.SlotHealthy] != r.Report.Upgraded ||
		counts[cluster.SlotRolledBack] != r.Report.RolledBack ||
		counts[cluster.SlotDead] != r.Report.Dead {
		t.Fatalf("report/slot mismatch: %v vs %+v", counts, r.Report)
	}
}

// TestRolloutCampaignSeedsDiffer guards against the campaign ignoring its
// seed: different seeds must not produce identical runs.
func TestRolloutCampaignSeedsDiffer(t *testing.T) {
	a := Rollout.Run(Rollout.Generate(0xa11ce, "wfq"), RolloutRunConfig{})
	b := Rollout.Run(Rollout.Generate(0xf1ee7, "wfq"), RolloutRunConfig{})
	if fmt.Sprint(a.Stats) == fmt.Sprint(b.Stats) && reflect.DeepEqual(a.Report, b.Report) {
		t.Fatal("different seeds produced identical rollout runs — the plan is not seed-sensitive")
	}
}
