package main

import (
	"syscall"
	"time"
)

// The reference loop. The reference box is a shared two-core VM whose speed
// drifts by well over a tenth for minutes at a time (neighbours, SMT,
// frequency), which no amount of repetition inside one run averages out. So
// every rep is bracketed by a fixed loop of the benchmark's own, and the
// rep's host times are scaled by how fast that loop ran: a slow spell of the
// host slows both alike and cancels. The loop shares no code with the program
// under test — a change to the program cannot move it — and is shaped like
// the simulator (a binary heap of re-arming timers, handlers touching
// scattered state) so that contention hits it the way it hits the workloads.
const (
	// refSteps is the events one call fires.
	refSteps = 150_000
	// refNominal is what two calls take on the reference box in a quiet
	// spell. It only fixes the scale: host_speed 1 means that speed, and
	// scaled times read as seconds on that box.
	refNominal = 35 * time.Millisecond
	// refStateMB is the loop's working set: past the private caches, because
	// the drift that matters on the reference box is contention for the
	// shared cache and memory, which a loop living in L2 does not feel.
	refStateMB = 8
)

// refState is mapped outside the Go heap, so it neither raises the collector's
// heap goal nor is scanned: the workloads see the heap they would see alone.
// rssPeakMB takes its size back out.
var refState = mapRefState()

func mapRefState() []byte {
	b, err := syscall.Mmap(-1, 0, refStateMB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: cannot map the reference loop's state: " + err.Error())
	}
	for i := range b {
		b[i] = byte(i) // resident from the start, so every rep sees it alike
	}
	return b
}

// refHeap is the loop's event queue, kept between calls so a call allocates
// nothing.
var refHeap = make([]refEvent, 0, 512)

type refEvent struct {
	at uint64
	id uint32
}

// atHostSpeed runs fn between two reference loops and returns how fast the
// host was running around it: refNominal over what the two loops took.
func atHostSpeed(fn func()) float64 {
	ref := refLoop()
	fn()
	ref += refLoop()
	return refNominal.Seconds() / ref.Seconds()
}

// refLoop fires refSteps events and returns how long that took.
func refLoop() time.Duration {
	t0 := time.Now()
	heap := refHeap[:0]
	x := uint64(88172645463325252)
	rand := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	push := func(e refEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() refEvent {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && heap[l].at < heap[m].at {
				m = l
			}
			if r < n && heap[r].at < heap[m].at {
				m = r
			}
			if m == i {
				break
			}
			heap[m], heap[i] = heap[i], heap[m]
			i = m
		}
		return top
	}
	for i := 0; i < 400; i++ {
		push(refEvent{at: rand() >> 40, id: uint32(i)})
	}
	for s := 0; s < refSteps; s++ {
		e := pop()
		slot := &refState[(uint64(e.id)*2654435761+rand())&(refStateMB<<20-1)]
		*slot += byte(e.at)
		if *slot&1 == 0 {
			e.at += 1 + x>>54
		} else {
			e.at += 1 + x>>56
		}
		push(e)
	}
	return time.Since(t0)
}
