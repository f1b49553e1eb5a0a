package core_test

import (
	"testing"

	"enoki/internal/bench"
)

// The benchmark bodies live in internal/bench, beside the other hot-path
// micro-benchmarks.

// BenchmarkDispatch measures libEnoki's processing function: the per-message
// parse + call + reply write that happens on every framework crossing.
func BenchmarkDispatch(b *testing.B) { bench.Dispatch(b) }

// BenchmarkDispatchWakeup includes a token materialisation (the replay
// path).
func BenchmarkDispatchWakeup(b *testing.B) { bench.DispatchWakeup(b) }

// BenchmarkDispatchAll drives every dispatchable message Kind through
// Dispatch each iteration.
func BenchmarkDispatchAll(b *testing.B) { bench.DispatchAll(b) }

// BenchmarkDispatchTraced is the fully instrumented crossing: panic
// containment plus a live tracer sink recording every message.
func BenchmarkDispatchTraced(b *testing.B) { bench.DispatchTraced(b) }
