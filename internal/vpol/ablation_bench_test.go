package vpol_test

import (
	"testing"

	"enoki/internal/bench"
)

// Thin delegates so the crossing-cost ablation runs under `go test -bench`
// here. Same FIFO policy, same ping-pong workload; only the attachment tier
// differs.

func BenchmarkScheduleOpModuleFIFO(b *testing.B) { bench.ScheduleOpModuleFIFO(b) }

func BenchmarkScheduleOpVerifiedFIFO(b *testing.B) { bench.ScheduleOpVerifiedFIFO(b) }
