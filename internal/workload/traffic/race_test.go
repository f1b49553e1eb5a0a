//go:build race

package traffic_test

// Instrumented builds do without the compiler's append-of-make rewrite, so
// every slices.Grow of a timer-wheel slot also allocates a temporary as big
// as the buffer it grows: about 40 B per request in TestTrafficRequestAllocs
// (194 B against 156 B plain).
func init() { raceGrowBytes = 40 }
