package main

// Example runs the example as a golden-output test: every figure it prints is
// virtual time, so the output never moves unless the simulation does.
func Example() {
	main()
	// Output:
	// spinners finished: 8/8 (sim time T+100ms)
	// pipe ping-pong: 10000 wakeups, 3.453µs per wakeup
	// framework: 50257 messages dispatched, 0 invalid picks caught
}
