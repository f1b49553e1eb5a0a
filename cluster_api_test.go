package enoki_test

import (
	"errors"
	"testing"
	"time"

	"enoki"
)

// TestNewClusterQuickstart is the README example: a small fleet, a batch of
// jobs, everything completes, and the handle closes cleanly exactly once.
func TestNewClusterQuickstart(t *testing.T) {
	cl := enoki.NewCluster(
		enoki.WithMachines(4),
		enoki.WithPlacer("leastloaded"),
	)
	for i := 0; i < 20; i++ {
		cl.Submit(enoki.JobSpec{Cycles: 3, Run: 100 * time.Microsecond})
	}
	cl.RunUntilIdle()
	st := cl.Stats()
	if st.Done != 20 || st.MachinesAlive != 4 {
		t.Fatalf("done/alive = %d/%d, want 20/4", st.Done, st.MachinesAlive)
	}
	if cl.Job(0).State != enoki.JobDone {
		t.Fatalf("job 0 state %v, want done", cl.Job(0).State)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := cl.Close(); !errors.Is(err, enoki.ErrClusterClosed) {
		t.Fatalf("second Close = %v, want ErrClusterClosed", err)
	}
}

// TestNewClusterOptions covers the remaining option plumbing: machine
// template, custom setup with a forced parallel drive, rebalancing, failure
// injection, and the by-instance placer option.
func TestNewClusterOptions(t *testing.T) {
	setupRan := 0
	cl := enoki.NewCluster(
		enoki.WithMachines(3),
		enoki.WithMachineTemplate(enoki.MachineNUMA("api16", 2, 2, 4)),
		enoki.WithNetLatency(30*time.Microsecond),
		enoki.WithReconcileInterval(150*time.Microsecond),
		enoki.WithDetectDelay(300*time.Microsecond),
		enoki.WithClusterPlacer(enoki.PlacerByName("roundrobin")),
		enoki.WithRebalanceSpread(2),
		enoki.WithJobPolicy(0),
		enoki.WithFleetParallel(true), // the hook shares nothing across machines
		enoki.WithMachineSetup(func(machine int, sk *enoki.ShardedKernel) {
			setupRan++
			for s := 0; s < sk.NumShards(); s++ {
				k := sk.ShardKernel(s)
				k.RegisterClass(0, enoki.NewCFS(k))
			}
		}),
	)
	defer cl.Close()
	if setupRan != 3 {
		t.Fatalf("setup ran %d times, want once per machine", setupRan)
	}
	for i := 0; i < 12; i++ {
		cl.Submit(enoki.JobSpec{Cycles: 40, Run: 120 * time.Microsecond})
	}
	cl.FailMachine(1, 2*time.Millisecond)
	cl.RunUntilIdle()
	st := cl.Stats()
	if st.Done != 12 {
		t.Fatalf("done = %d, want 12 (stats %+v)", st.Done, st)
	}
	if st.Lost == 0 || st.MachinesAlive != 2 {
		t.Fatalf("failure not exercised: lost %d, alive %d", st.Lost, st.MachinesAlive)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("WithPlacer with an unknown name did not panic")
		}
	}()
	enoki.WithPlacer("definitely-not-a-placer")
}
