package enoki_test

import (
	"testing"
	"time"

	"enoki"
)

// trafficScenario is the README overload example's traffic plan: a
// shinjuku api tier and an unlimited CFS batch tier, two regions half a
// day out of phase, and a ×8 flash crowd on the api mid-run.
func trafficScenario() enoki.TrafficScenario {
	return enoki.TrafficScenario{
		Seed:     42,
		Rate:     400_000,
		Duration: 10 * time.Millisecond,
		Classes: []enoki.TrafficClass{
			{Name: "api", Policy: 1, Admission: 0, Weight: 0.7,
				Work: 30 * time.Microsecond, Fanout: 2, ReqPerConn: 2, Think: 300 * time.Microsecond},
			{Name: "batch", Policy: 0, Admission: 1, Weight: 0.3,
				Work: 100 * time.Microsecond},
		},
		Regions: []enoki.TrafficRegion{
			{Name: "us", Share: 0.5},
			{Name: "eu", Share: 0.5, Offset: 5 * time.Millisecond},
		},
		Shapes: []enoki.TrafficShape{
			{Kind: enoki.TrafficFlash, Class: 0, At: 4 * time.Millisecond, Dur: 3 * time.Millisecond, Mult: 8},
		},
	}
}

func overloadSystem(t *testing.T, opts ...enoki.Option) *enoki.System {
	t.Helper()
	sys := enoki.NewSystem(append([]enoki.Option{
		enoki.WithAdmission(
			enoki.AdmissionClass{Name: "api", Policy: 1, MaxInflight: 96,
				MaxRetries: 2, Backoff: 150 * time.Microsecond},
			enoki.AdmissionClass{Name: "batch", Policy: 0},
		),
		enoki.WithBrownout(0, 60, 10),
	}, opts...)...)
	if _, err := sys.Attach(1, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
		return enoki.NewShinjukuScheduler(env, 1, 0)
	})); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	sys.RegisterCFS(0)
	return sys
}

// TestDriveTrafficQuickstart is the README overload example: a flash
// crowd on the api tier sheds at admission, browns the module out and
// back, and the books balance.
func TestDriveTrafficQuickstart(t *testing.T) {
	sys := overloadSystem(t)
	defer sys.Close()
	rep := sys.DriveTraffic(trafficScenario(), 40*time.Millisecond)
	if len(rep.Violations) != 0 {
		t.Fatalf("conservation violations: %v", rep.Violations)
	}
	if rep.Connections == 0 || rep.Requests == 0 {
		t.Fatal("no traffic generated")
	}
	api := rep.Admission[0]
	if api.Shed == 0 || api.Retried == 0 || api.Dropped == 0 {
		t.Fatalf("flash crowd never exercised shedding: %+v", api)
	}
	if api.Admitted == 0 {
		t.Fatal("everything shed")
	}
	if rep.Admission[1].Shed != 0 {
		t.Fatalf("unlimited batch class shed %d", rep.Admission[1].Shed)
	}
	if !rep.BrownoutEntered || !rep.Recovered {
		t.Fatalf("brownout entered=%v recovered=%v", rep.BrownoutEntered, rep.Recovered)
	}
	for ci, c := range rep.Classes {
		if c.Requests != c.Completed {
			t.Fatalf("class %d: %d admitted, %d completed (undrained rig)", ci, c.Requests, c.Completed)
		}
	}
	// The controller is reachable for custom ingress paths too.
	if sys.AdmissionController(0) == nil {
		t.Fatal("AdmissionController(0) = nil")
	}
}

// TestDriveTrafficShardedDeterministic pins the sharded contract at the
// public surface: a sharded drive of the scenario reproduces its pinned
// fingerprint with the books balanced.
func TestDriveTrafficShardedDeterministic(t *testing.T) {
	sys := overloadSystem(t, enoki.WithMachine(enoki.Machine80()), enoki.WithShards(0))
	defer sys.Close()
	rep := sys.DriveTraffic(trafficScenario(), 40*time.Millisecond)
	// Captured at 85aa9b0, where both drives still agreed.
	if got, want := rep.Fingerprint(), uint64(0xc4070f70381e28f4); got != want {
		t.Errorf("fingerprint %#x, pinned %#x", got, want)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestDriveTrafficRequiresAdmission pins the panic contract.
func TestDriveTrafficRequiresAdmission(t *testing.T) {
	sys := enoki.NewSystem()
	defer sys.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("DriveTraffic without WithAdmission did not panic")
		}
	}()
	sys.DriveTraffic(trafficScenario(), time.Millisecond)
}

// TestWithBrownoutRequiresAdmission pins the option-validation panics:
// WithBrownout without WithAdmission, and with an unknown class index.
func TestWithBrownoutRequiresAdmission(t *testing.T) {
	mustPanic := func(name string, opts ...enoki.Option) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		enoki.NewSystem(opts...)
	}
	mustPanic("WithBrownout alone", enoki.WithBrownout(0, 10, 2))
	mustPanic("WithBrownout out of range",
		enoki.WithAdmission(enoki.AdmissionClass{Name: "only"}),
		enoki.WithBrownout(3, 10, 2))
}

// TestClusterOfferAdmission is the fleet side of the quickstart: jobs
// offered through a cluster built with WithClusterAdmission shed when the
// inflight budget is exhausted, retry after backoff, and conserve.
func TestClusterOfferAdmission(t *testing.T) {
	cl := enoki.NewCluster(
		enoki.WithMachines(3),
		enoki.WithClusterAdmission(
			enoki.AdmissionClass{Name: "jobs", MaxInflight: 4, MaxRetries: 1, Backoff: time.Millisecond},
		),
	)
	defer cl.Close()
	admitted := 0
	for i := 0; i < 16; i++ {
		if cl.Offer(0, enoki.JobSpec{Cycles: 1, Run: 100 * time.Microsecond}) == enoki.AdmissionAdmitted {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("admitted %d of 16 with MaxInflight 4", admitted)
	}
	cl.RunUntilIdle()
	n := cl.Overload().Total()
	if n.Offered != 16+n.Retried {
		t.Fatalf("offer accounting off: %+v", n)
	}
	if n.Admitted != uint64(cl.Stats().Done) {
		t.Fatalf("admitted %d but %d jobs done", n.Admitted, cl.Stats().Done)
	}
	if v := cl.Overload().CheckConservation(false); len(v) != 0 {
		t.Fatalf("conservation violations: %v", v)
	}
	if cl.Backlog() != 0 {
		t.Fatalf("backlog %d after drain", cl.Backlog())
	}
}

// TestTrafficFleetDriverQuickstart drives an open-loop scenario against a
// cluster's Offer front door and checks the merged accounting.
func TestTrafficFleetDriverQuickstart(t *testing.T) {
	cl := enoki.NewCluster(
		enoki.WithMachines(4),
		enoki.WithClusterAdmission(
			enoki.AdmissionClass{Name: "api", MaxInflight: 24, MaxRetries: 2, Backoff: 400 * time.Microsecond},
			enoki.AdmissionClass{Name: "batch"},
		),
	)
	defer cl.Close()
	sc := enoki.TrafficScenario{
		Seed:     7,
		Rate:     120_000,
		Duration: 3 * time.Millisecond,
		Classes: []enoki.TrafficClass{
			{Name: "api", Weight: 0.7, Work: 80 * time.Microsecond},
			{Name: "batch", Admission: 1, Weight: 0.3, Work: 150 * time.Microsecond},
		},
		Shapes: []enoki.TrafficShape{
			{Kind: enoki.TrafficFlash, Class: 0, At: time.Millisecond, Dur: time.Millisecond, Mult: 6},
		},
	}
	f := enoki.NewTrafficFleetDriver(cl, sc)
	f.Start()
	cl.RunUntilIdle()
	if v := f.CheckConservation(); len(v) != 0 {
		t.Fatalf("conservation violations: %v", v)
	}
	n := f.Counters()
	if f.Connections() == 0 || n.Admitted == 0 || n.Shed == 0 {
		t.Fatalf("fleet drive too quiet: %d conns, %+v", f.Connections(), n)
	}
	if n.Admitted != uint64(cl.Stats().Done) {
		t.Fatalf("admitted %d but %d jobs done", n.Admitted, cl.Stats().Done)
	}
}
