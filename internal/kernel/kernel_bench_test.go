package kernel_test

import (
	"testing"

	"enoki/internal/bench"
)

// Micro-benchmarks of the hot simulator paths: these bound how much virtual
// work the harness can push per host second. The bodies live in
// internal/bench, where the zero-allocation ratchets run the same code.

func BenchmarkScheduleOp(b *testing.B) { bench.ScheduleOp(b) }

func BenchmarkScheduleOpTraced(b *testing.B) { bench.ScheduleOpTraced(b) }

func BenchmarkScheduleOpChaosIdle(b *testing.B) { bench.ScheduleOpChaosIdle(b) }

func BenchmarkWakeBurst(b *testing.B) { bench.WakeBurst(b) }

func BenchmarkSpawnExit(b *testing.B) { bench.SpawnExit(b) }

func BenchmarkTickPath(b *testing.B) { bench.TickPath(b) }
