package main

// Example runs the example as a golden-output test: every figure it prints is
// virtual time, so the output never moves unless the simulation does.
func Example() {
	main()
	// Output:
	// worker wakeup latency (2 message threads × 2 workers):
	//   random placement (no hints):  p50 31.065µs   p99 46.511µs
	//   with co-location hints:       p50  4.079µs   p99    8.3µs
	// hints cut the median wakeup by 8x by avoiding cold-core wakeups
}
