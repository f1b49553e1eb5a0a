package main

// Example runs the example as a golden-output test: every figure it prints is
// virtual time, so the output never moves unless the simulation does.
func Example() {
	main()
	// Output:
	// RocksDB-style dispersive load, 55k req/s, 50 workers on 5 cores:
	//   CFS:             p50    6.8µs   p99  351.615µs
	//   Enoki-Shinjuku:  p50   7.47µs   p99   44.366µs
	// 10µs preemption cuts the tail by 8x
}
