package traffic_test

import (
	"testing"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/kernel"
	"enoki/internal/overload"
	"enoki/internal/workload/traffic"
)

func fleetScenario() traffic.Scenario {
	return traffic.Scenario{
		Seed:     42,
		Rate:     120_000,
		Duration: 3 * time.Millisecond,
		Classes: []traffic.Class{
			{Name: "api", Weight: 0.7, Work: 80 * time.Microsecond,
				ReqPerConn: 2, Think: 100 * time.Microsecond},
			{Name: "batch", Admission: 1, Weight: 0.3, Work: 150 * time.Microsecond},
		},
		Regions: []traffic.Region{
			{Name: "us", Share: 0.5},
			{Name: "eu", Share: 0.5, Offset: 1500 * time.Microsecond},
		},
		Shapes: []traffic.Shape{
			{Kind: traffic.Flash, Class: 0, At: time.Millisecond, Dur: time.Millisecond, Mult: 6},
		},
	}
}

func fleetAdmission() []overload.ClassConfig {
	return []overload.ClassConfig{
		{Name: "api", MaxInflight: 24, MaxRetries: 2, Backoff: 400 * time.Microsecond},
		{Name: "batch"},
	}
}

func fleetDrive(t *testing.T, parallel bool) (*traffic.FleetDriver, cluster.Stats, []overload.Counters) {
	t.Helper()
	c := cluster.New(cluster.Config{
		Machines:  4,
		Machine:   kernel.Machine8(),
		Admission: fleetAdmission(),
		Parallel:  &parallel,
	})
	defer c.Close()
	f := traffic.NewFleetDriver(c, fleetScenario())
	f.Start()
	c.RunUntilIdle()
	if v := f.CheckConservation(); len(v) != 0 {
		t.Fatalf("fleet conservation violations: %v", v)
	}
	cs := []overload.Counters{c.Overload().Counters(0), c.Overload().Counters(1)}
	return f, c.Stats(), cs
}

func TestFleetDriveShedsAndConserves(t *testing.T) {
	f, st, cs := fleetDrive(t, false)
	if f.Connections() < 100 {
		t.Fatalf("only %d connections offered", f.Connections())
	}
	api := cs[0]
	if api.Shed == 0 || api.Dropped == 0 {
		t.Fatalf("flash crowd never shed at the fleet front door: %+v", api)
	}
	if api.Admitted == 0 {
		t.Fatal("everything shed")
	}
	if cs[1].Shed != 0 {
		t.Fatalf("unlimited batch class shed %d", cs[1].Shed)
	}
	total := f.Counters()
	if int(total.Admitted) != st.Done {
		t.Fatalf("admitted %d jobs, %d done", total.Admitted, st.Done)
	}
}

func TestFleetDriveSerialParallelIdentical(t *testing.T) {
	_, sst, scs := fleetDrive(t, false)
	_, pst, pcs := fleetDrive(t, true)
	if sst.Done != pst.Done || sst.Submitted != pst.Submitted {
		t.Fatalf("serial %d/%d vs parallel %d/%d done/submitted",
			sst.Done, sst.Submitted, pst.Done, pst.Submitted)
	}
	for i := range scs {
		if scs[i] != pcs[i] {
			t.Fatalf("class %d counters differ: serial %+v parallel %+v", i, scs[i], pcs[i])
		}
	}
}
