package bench

import (
	"testing"
	"time"

	"enoki/internal/cluster"
	"enoki/internal/kernel"
)

// fleetPins are scaled-down fleet drives whose outcome is pinned across
// commits, not just across drive modes: the per-machine/per-job fingerprint
// and every field of cluster.Stats, captured at 101d1ac. A representation
// change under the fleet job path (messages, job records, task records, the
// timer wheel) must reproduce all of them bit for bit, serial and parallel.
var fleetPins = []struct {
	name string
	cfg  func() cluster.Config
	fp   uint64
	want cluster.Stats
}{
	{
		name: "leastloaded",
		cfg: func() cluster.Config {
			return cluster.Config{Machines: 6, Machine: kernel.Machine8(), Placer: cluster.LeastLoaded{}}
		},
		fp: 0xd6e0be180a55717e,
		want: cluster.Stats{Submitted: 120, Done: 120, Lost: 15, Migrations: 0, StartsSent: 135, StopsSent: 0,
			PlaceP50: 300000, PlaceP99: 300000, E2EP50: 1638400, E2EP99: 3801088,
			MachinesAlive: 5, TasksSpawned: 135, CtxSwitches: 575, EventsFired: 1393,
			Epochs: 68, MsgsSent: 391, MsgsDelivered: 391, MsgsDropped: 0},
	},
	{
		name: "pack-rebalance",
		cfg: func() cluster.Config {
			return cluster.Config{Machines: 6, Machine: kernel.Machine8(),
				Placer: &cluster.Pack{PerCPU: 2}, RebalanceSpread: 3}
		},
		fp: 0xf570dc8534c1ac2d,
		want: cluster.Stats{Submitted: 120, Done: 120, Lost: 18, Migrations: 10, StartsSent: 140, StopsSent: 10,
			PlaceP50: 300000, PlaceP99: 300000, E2EP50: 1769472, E2EP99: 3801088,
			MachinesAlive: 5, TasksSpawned: 140, CtxSwitches: 584, EventsFired: 1428,
			Epochs: 73, MsgsSent: 413, MsgsDelivered: 411, MsgsDropped: 2},
	},
	{
		name: "numa",
		cfg: func() cluster.Config {
			return cluster.Config{Machines: 6, Machine: kernel.MachineNUMA("fleet16", 2, 2, 4),
				Placer: cluster.LeastLoaded{}}
		},
		fp: 0x7f81fc4028d1bf50,
		want: cluster.Stats{Submitted: 120, Done: 120, Lost: 15, Migrations: 0, StartsSent: 135, StopsSent: 0,
			PlaceP50: 300000, PlaceP99: 300000, E2EP50: 1769472, E2EP99: 3970391,
			MachinesAlive: 5, TasksSpawned: 135, CtxSwitches: 563, EventsFired: 1409,
			Epochs: 71, MsgsSent: 391, MsgsDelivered: 391, MsgsDropped: 0},
	},
}

// TestFleetDriveDeterministic runs a scaled-down fleet drive both ways: the
// per-machine fingerprints must match and every job must complete despite
// the mid-run machine kill — the same verdicts the full artifact gates on,
// cheap enough for the test suite.
func TestFleetDriveDeterministic(t *testing.T) {
	const machines, jobs = 6, 120
	cfg := cluster.Config{Machines: machines, Machine: kernel.Machine8(), Placer: cluster.LeastLoaded{}}
	serial, fpSerial, virt, _ := fleetDrive(cfg, jobs, time.Millisecond)
	cfg.Parallel = true
	par, fpPar, _, _ := fleetDrive(cfg, jobs, time.Millisecond)
	if fpSerial != fpPar {
		t.Fatalf("fingerprints diverge: %016x vs %016x", fpSerial, fpPar)
	}
	if serial != par {
		t.Fatalf("stats diverge:\nserial   %+v\nparallel %+v", serial, par)
	}
	if serial.Done != jobs {
		t.Fatalf("done = %d, want %d", serial.Done, jobs)
	}
	if serial.Lost == 0 {
		t.Fatal("the kill lost no placements — failover not exercised")
	}
	if virt <= 0 || serial.Epochs == 0 {
		t.Fatalf("drive did not advance: virt %v, %d epochs", virt, serial.Epochs)
	}
}

// TestFleetDrivePinned runs each pinned drive serially and on worker
// goroutines: both must reproduce the recorded fingerprint and stats, with
// every job done and the kill having cost placements.
func TestFleetDrivePinned(t *testing.T) {
	const jobs = 120
	for _, pin := range fleetPins {
		for _, parallel := range []bool{false, true} {
			cfg := pin.cfg()
			cfg.Parallel = parallel
			st, fp, virt, _ := fleetDrive(cfg, jobs, time.Millisecond)
			if fp != pin.fp {
				t.Errorf("%s parallel=%v: fingerprint %#016x, pinned %#016x", pin.name, parallel, fp, pin.fp)
			}
			if st != pin.want {
				t.Errorf("%s parallel=%v: stats moved:\n got  %#v\n want %#v", pin.name, parallel, st, pin.want)
			}
			if st.Done != jobs || st.Lost == 0 {
				t.Errorf("%s parallel=%v: done %d of %d, lost %d — failover not exercised", pin.name, parallel, st.Done, jobs, st.Lost)
			}
			if virt <= 0 || st.Epochs == 0 {
				t.Errorf("%s parallel=%v: drive did not advance: virt %v, %d epochs", pin.name, parallel, virt, st.Epochs)
			}
		}
	}
}
