package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

const golden = `upgrade blackout:      1.52µs of simulated service interruption
module swap (host):    <host> of Go time in prepare+init+swap
calls deferred:        0 delivered to the new module after the swap
module replaced:       true
service iterations:    912 before, 912 after (none lost)
worst wakeup latency around the upgrade: 46.977µs
`

// hostSwap is the one host-clock figure the example prints.
var hostSwap = regexp.MustCompile(`(module swap \(host\):\s+)\S+`)

// TestGoldenOutput runs the example and compares what it prints with its
// golden output. Every figure but the host time of the module swap, which
// is masked, is virtual time, so the output never moves unless the
// simulation does.
func TestGoldenOutput(t *testing.T) {
	if got := hostSwap.ReplaceAllString(stdoutOf(t, main), "${1}<host>"); got != golden {
		t.Errorf("output changed:\n%s\nwant:\n%s", got, golden)
	}
}

// stdoutOf returns what f prints to standard output.
func stdoutOf(t *testing.T, f func()) string {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	f()
	w.Close()
	return string(<-out)
}
