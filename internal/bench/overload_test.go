package bench

import (
	"testing"

	"enoki/internal/kernel"
)

// TestRunOverloadSmoke runs the overload benchmark at the CI scale (the
// 8-CPU machine) and requires every SLO verdict to pass — the same gate
// `enokibench -artifact` ships in BENCH_cluster.json.
func TestRunOverloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("overload bench drive in -short")
	}
	r := RunOverload(kernel.Machine8())
	if len(r.SLOs) < 4 {
		t.Fatalf("only %d SLO verdicts", len(r.SLOs))
	}
	for _, s := range r.SLOs {
		t.Logf("%-22s target=%q measured=%q pass=%v", s.Name, s.Target, s.Measured, s.Pass)
		if !s.Pass {
			t.Errorf("SLO %s failed: want %s, measured %s", s.Name, s.Target, s.Measured)
		}
	}
	if !r.Pass {
		t.Fatal("overload benchmark did not pass")
	}
}
