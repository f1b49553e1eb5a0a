package chaos

import (
	"strings"
	"testing"
)

// TestCampaignVerifiedTierSmoke is the verified-tier chaos gate: a seeded
// campaign across every class with the bytecode dual-queue mounted on top.
// The chaos planes sabotage the module and the kernel underneath it; the
// verified tier must keep scheduling its share of the workload and must
// never be killed.
func TestCampaignVerifiedTierSmoke(t *testing.T) {
	runs := 30
	if testing.Short() {
		runs = 7
	}
	res := Single.Campaign(CampaignConfig[RunConfig]{
		Runs: runs,
		Seed: 0x7e81f1ed,
		Run:  RunConfig{VerifiedTier: true},
	})
	if res.Runs != runs {
		t.Errorf("campaign stopped early: %d of %d runs", res.Runs, runs)
	}
	for _, f := range res.Failures {
		t.Errorf("FAIL %s\n  minimized: %v\n  violations: %v\n  reproduce: %s",
			f.Result.Schedule.Spec(), f.Minimized.Enabled(), f.MinResult.Violations, f.Replay)
	}
}

// TestRunVerifiedTierReported pins the Result plumbing: a quiet schedule
// with the verified tier mounted reports picks and no kill, and the replay
// command carries the -verified flag.
func TestRunVerifiedTierReported(t *testing.T) {
	s := Single.Generate(42, "wfq")
	s.Mask = 0 // disable every fault plane
	res := Single.Run(s, RunConfig{VerifiedTier: true})
	if res.Failed() {
		t.Fatalf("quiet verified run failed: %v", res.Violations)
	}
	if res.VerifiedKilled || res.VerifiedFailure != nil {
		t.Fatalf("verified tier reported a kill on a quiet run: %+v", res.VerifiedFailure)
	}
	if res.VerifiedPicks == 0 {
		t.Fatal("verified tier reported zero picks")
	}
	if cmd := Single.ReplayCommand(s, RunConfig{VerifiedTier: true}); !strings.HasSuffix(cmd, " -verified") {
		t.Fatalf("replay command missing -verified: %q", cmd)
	}
}
