package ghost

import (
	"testing"
	"time"
)

func TestFIFOPolicyPerCPU(t *testing.T) {
	p := NewFIFOPolicy()
	p.OnMessage(AgentMsg{Kind: MNew, PID: 1, CPU: 0})
	p.OnMessage(AgentMsg{Kind: MNew, PID: 2, CPU: 0})
	p.OnMessage(AgentMsg{Kind: MNew, PID: 3, CPU: 1})

	if pid, ok := p.NextFor(0); !ok || pid != 1 {
		t.Fatalf("NextFor(0) = %d,%v", pid, ok)
	}
	if pid, ok := p.NextFor(1); !ok || pid != 3 {
		t.Fatalf("NextFor(1) = %d,%v", pid, ok)
	}
	if pid, ok := p.NextFor(0); !ok || pid != 2 {
		t.Fatalf("NextFor(0) second = %d,%v", pid, ok)
	}
	if _, ok := p.NextFor(0); ok {
		t.Fatal("empty queue produced a task")
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d after every task was handed out", p.Pending())
	}
	if p.Slice() != 0 {
		t.Fatal("FIFO should not slice")
	}
}

func TestFIFOPolicyBlockedRemoves(t *testing.T) {
	p := NewFIFOPolicy()
	p.OnMessage(AgentMsg{Kind: MWakeup, PID: 1, CPU: 0})
	p.OnMessage(AgentMsg{Kind: MBlocked, PID: 1, CPU: 0})
	if _, ok := p.NextFor(0); ok {
		t.Fatal("blocked task still scheduled")
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d", p.Pending())
	}
}

func TestFIFOPolicyRequeueMovesToBack(t *testing.T) {
	p := NewFIFOPolicy()
	p.OnMessage(AgentMsg{Kind: MWakeup, PID: 1, CPU: 0})
	p.OnMessage(AgentMsg{Kind: MWakeup, PID: 2, CPU: 0})
	p.OnMessage(AgentMsg{Kind: MPreempt, PID: 1, CPU: 0})
	if pid, _ := p.NextFor(0); pid != 2 {
		t.Fatalf("preempted task did not move back: %d", pid)
	}
}

func TestGlobalPolicyFCFSAndWarmth(t *testing.T) {
	p := NewSOLPolicy()
	p.OnMessage(AgentMsg{Kind: MWakeup, PID: 1, CPU: 4})
	p.OnMessage(AgentMsg{Kind: MWakeup, PID: 2, CPU: 5})
	// CPU 5 prefers its warm task even though pid 1 is older.
	if pid, _ := p.NextFor(5); pid != 2 {
		t.Fatalf("warmth preference broken: %d", pid)
	}
	// An unrelated CPU takes the oldest remaining arrival.
	if pid, _ := p.NextFor(9); pid != 1 {
		t.Fatalf("FCFS fallback broken: %d", pid)
	}
}

func TestGlobalPolicyAffinity(t *testing.T) {
	p := NewSOLPolicy()
	p.OnMessage(AgentMsg{Kind: MNew, PID: 1, CPU: 0, Allowed: []int{3}})
	if _, ok := p.NextFor(2); ok {
		t.Fatal("scheduled a task on a forbidden cpu")
	}
	if pid, ok := p.NextFor(3); !ok || pid != 1 {
		t.Fatalf("NextFor(3) = %d,%v", pid, ok)
	}
}

func TestShinjukuPolicySlices(t *testing.T) {
	p := NewShinjukuPolicy(10 * time.Microsecond)
	if p.Slice() != 10*time.Microsecond {
		t.Fatal("slice not set")
	}
	if p.Name() != "shinjuku" {
		t.Fatal("name")
	}
}

func TestGlobalPolicyDeadCleans(t *testing.T) {
	p := NewSOLPolicy()
	p.OnMessage(AgentMsg{Kind: MNew, PID: 1, CPU: 0, Allowed: []int{0}})
	p.OnMessage(AgentMsg{Kind: MDead, PID: 1, CPU: 0})
	if p.Pending() != 0 {
		t.Fatal("dead task still pending")
	}
	if len(p.allowed) != 0 || len(p.lastCPU) != 0 {
		t.Fatal("dead task state leaked")
	}
}
