package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

const golden = `recorded 58449 entries (0 dropped) into a 1037711-byte log
replayed 19483 messages at userspace in <host>: 0 divergences
replaying a modified scheduler: 50 divergences, e.g.:
   seq 5 (pick_next_task): returned <nil>, recorded &{PID:2 CPU:0 Gen:1}
   seq 8 (pick_next_task): returned <nil>, recorded &{PID:3 CPU:0 Gen:1}
   seq 13 (pick_next_task): returned <nil>, recorded &{PID:2 CPU:0 Gen:2}
`

// hostReplay is the one host-clock figure the example prints: how long the
// userspace replay took.
var hostReplay = regexp.MustCompile(`(at userspace in )\S+:`)

// TestGoldenOutput runs the example and compares what it prints with its
// golden output. Every figure but the replay's host time, which is masked,
// comes from the simulation or the log, so the output never moves unless
// the simulation does.
func TestGoldenOutput(t *testing.T) {
	if got := hostReplay.ReplaceAllString(stdoutOf(t, main), "${1}<host>:"); got != golden {
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
