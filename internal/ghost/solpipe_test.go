package ghost_test

import (
	"testing"

	"enoki/internal/experiments"
	"enoki/internal/kernel"
	"enoki/internal/workload"
)

// TestSOLPipeAgentRoundsPinned pins the SOL agent's round count on quick
// Table 3's same-core pipe cell. Most of those rounds are empty ones that run
// as idle spin segments, so the count holds only if every segment a post cut
// short, and the one still spinning when the run ends, counts exactly the
// rounds it covered.
func TestSOLPipeAgentRoundsPinned(t *testing.T) {
	r := experiments.NewRig(kernel.Machine8(), experiments.KindGhostSOL)
	workload.RunPipe(r.K, workload.PipeConfig{Policy: r.Policy, Messages: 20000, SameCore: true})
	if got, want := r.Ghost.AgentActivations(), uint64(410434); got != want {
		t.Fatalf("%d agent rounds, pinned %d", got, want)
	}
}
