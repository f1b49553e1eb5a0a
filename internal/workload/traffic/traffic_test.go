package traffic_test

import (
	"bytes"
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/overload"
	"enoki/internal/record"
	"enoki/internal/sched/shinjuku"
	"enoki/internal/schedtest"
	"enoki/internal/schedtest/conformance"
	"enoki/internal/sim"
	"enoki/internal/workload/traffic"
)

const (
	policyCFS  = 0
	policyTest = 1
)

func admission() overload.Config {
	return overload.Config{Classes: []overload.ClassConfig{
		{Name: "api", Policy: policyTest, MaxInflight: 96, MaxRetries: 2,
			Backoff: 150 * time.Microsecond, EnterDepth: 60, ExitDepth: 10},
		{Name: "batch", Policy: policyCFS},
	}}
}

func scenario() traffic.Scenario {
	return traffic.Scenario{
		Seed:     42,
		Rate:     400_000,
		Duration: 10 * time.Millisecond,
		Classes: []traffic.Class{
			{Name: "api", Policy: policyTest, Admission: 0, Weight: 0.7,
				Work: 30 * time.Microsecond, Fanout: 2, ReqPerConn: 2, Think: 300 * time.Microsecond},
			{Name: "batch", Policy: policyCFS, Admission: 1, Weight: 0.3,
				Work: 100 * time.Microsecond},
		},
		Regions: []traffic.Region{
			{Name: "us", Share: 0.5},
			{Name: "eu", Share: 0.5, Offset: 5 * time.Millisecond},
		},
		Shapes: []traffic.Shape{
			{Kind: traffic.Flash, Class: 0, At: 4 * time.Millisecond, Dur: 3 * time.Millisecond, Mult: 8},
		},
	}
}

// rig is one sharded drive's configuration. The zero value of every switch
// is what the plane's own tests want: the small scenario's admission plan,
// no fault, a record log per shard, recycled task records.
type rig struct {
	sc  traffic.Scenario
	adm func() overload.Config // nil: admission()
	// panicAt > 0 arms a deterministic module panic on shard 0 after that
	// many picks (the module-kill-mid-flash case).
	panicAt int
	// noRecord leaves the recorders out, and with them the userspace drain
	// task that would pin each shard's pid table at pid 1.
	noRecord bool
	// plainSpawn runs the request tasks over Kernel.Spawn's never-reused
	// records (Driver.SpawnPlain).
	plainSpawn bool
}

// drove is what one drive leaves behind, per shard where it says so.
type drove struct {
	rep    traffic.Report
	logs   [][]byte
	killed bool
	fired  []uint64 // engine events
	ctx    []uint64 // context switches
	stats  []enokic.Stats
}

// drive runs r on the two-socket machine: one driver, controller and module
// per NUMA shard.
func (r rig) drive(t *testing.T) drove {
	t.Helper()
	m := kernel.Machine80()
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), m.NumNodes, 0)
	adm := r.adm
	if adm == nil {
		adm = admission
	}

	n := sk.NumShards()
	drivers := make([]*traffic.Driver, n)
	adapters := make([]*enokic.Adapter, n)
	bufs := make([]*bytes.Buffer, n)
	recs := make([]*record.Recorder, n)
	for i := 0; i < n; i++ {
		k := sk.ShardKernel(i)
		inj := &schedtest.Injector{}
		if i == 0 && r.panicAt > 0 {
			inj.PanicSite = core.MsgPickNextTask
			inj.PanicAt = r.panicAt
		}
		adapters[i] = enokic.Load(k, policyTest, enokic.DefaultConfig(), func(env core.Env) core.Scheduler {
			inj.Scheduler = shinjuku.New(env, policyTest, 0)
			return inj
		})
		k.RegisterClass(policyCFS, kernel.NewCFS(k))
		if !r.noRecord {
			bufs[i] = &bytes.Buffer{}
			recs[i] = record.New(k, bufs[i], policyCFS, record.DefaultCosts())
			adapters[i].SetRecorder(recs[i])
		}
		drivers[i] = traffic.NewDriver(k, r.sc, traffic.DriverConfig{
			Controller:  overload.New(adm()),
			Adapters:    map[int]*enokic.Adapter{policyTest: adapters[i]},
			Shard:       i,
			Shards:      n,
			SampleEvery: 250 * time.Microsecond,
		})
		if r.plainSpawn {
			drivers[i].SpawnPlain()
		}
		drivers[i].Start()
	}
	// The recorder's userspace drain task sleeps and wakes forever until
	// Close, so the rig never goes event-idle: drive to a fixed virtual
	// deadline with drain slack instead (the chaos campaigns' idiom).
	sk.RunFor(r.sc.Duration + 40*time.Millisecond)
	out := drove{logs: make([][]byte, n)}
	for i := 0; i < n; i++ {
		if !r.noRecord {
			recs[i].Close()
			out.logs[i] = bufs[i].Bytes()
		}
		if adapters[i].Killed() {
			out.killed = true
		}
		k := sk.ShardKernel(i)
		out.fired = append(out.fired, k.Engine().Fired())
		out.ctx = append(out.ctx, k.CtxSwitches)
		out.stats = append(out.stats, adapters[i].Stats())
	}
	out.rep = traffic.Collect(drivers...)
	return out
}

// shardedDrive runs the small scenario with a record log per shard; killed
// reports whether an armed panic tripped.
func shardedDrive(t *testing.T, sc traffic.Scenario, panicAt int) (traffic.Report, [][]byte, bool) {
	t.Helper()
	d := rig{sc: sc, panicAt: panicAt}.drive(t)
	return d.rep, d.logs, d.killed
}

func TestFlashCrowdShedsAndRecovers(t *testing.T) {
	rep, _, killed := shardedDrive(t, scenario(), 0)
	if killed {
		t.Fatal("module killed in a fault-free drive")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("conservation violations: %v", rep.Violations)
	}
	if rep.Connections < 3000 {
		t.Fatalf("only %d connections generated", rep.Connections)
	}
	n := rep.Admission[0]
	if n.Shed == 0 || n.Dropped == 0 || n.Retried == 0 {
		t.Fatalf("flash crowd never exercised shedding: %+v", n)
	}
	if n.Admitted == 0 {
		t.Fatal("everything shed")
	}
	// Batch is unlimited: never shed.
	if rep.Admission[1].Shed != 0 {
		t.Fatalf("unlimited class shed %d", rep.Admission[1].Shed)
	}
	if !rep.BrownoutEntered {
		t.Fatal("flash crowd never entered brownout")
	}
	if !rep.Recovered || rep.MaxRecovery <= 0 {
		t.Fatalf("brownout never recovered: recovered=%v rec=%v", rep.Recovered, rep.MaxRecovery)
	}
	// Every admitted request completed (drained rig).
	for ci, c := range rep.Classes {
		if c.Requests != c.Completed {
			t.Fatalf("class %d: %d admitted, %d completed", ci, c.Requests, c.Completed)
		}
	}
	if rep.Classes[0].FlashCount == 0 || rep.Classes[0].FlashP99 <= 0 {
		t.Fatal("no flash-window latency measured")
	}
}

// drivePin is what a pinned sharded drive must reproduce: the report's
// fingerprint and the per-shard record logs (conformance.LogsHash).
type drivePin struct{ Fingerprint, Logs uint64 }

// Captured at 85aa9b0, where the serial and the parallel drive of each
// still agreed byte for byte.
var (
	cleanDrivePin = drivePin{0x74f09d4a027297a8, 0x925b1168808ebb3d}
	killDrivePin  = drivePin{0x7f464de72d10da47, 0x63b59fec012327b5}
)

// TestShardedDrivePinned pins the clean small-scenario drive across commits.
func TestShardedDrivePinned(t *testing.T) {
	rep, logs, _ := shardedDrive(t, scenario(), 0)
	if got := (drivePin{rep.Fingerprint(), conformance.LogsHash(logs)}); got != cleanDrivePin {
		t.Fatalf("drive moved: got %#v, pinned %#v", got, cleanDrivePin)
	}
}

// TestModuleKillMidFlashConservation is the shed-accounting invariant
// under the worst case: the module dies in the middle of the flash crowd
// and every admitted in-flight request must be rehomed to CFS and still
// complete — no leaked inflight slots, no double counts — with the drive,
// kill included, pinned byte for byte.
func TestModuleKillMidFlashConservation(t *testing.T) {
	const panicAt = 1500 // lands inside the flash window's backlog
	rep, logs, killed := shardedDrive(t, scenario(), panicAt)
	if !killed {
		t.Fatal("armed panic never tripped the module kill")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("conservation broke across the kill/rehome: %v", rep.Violations)
	}
	for ci, c := range rep.Classes {
		if c.Requests != c.Completed {
			t.Fatalf("class %d leaked requests across rehome: %d admitted, %d completed",
				ci, c.Requests, c.Completed)
		}
	}
	if got := (drivePin{rep.Fingerprint(), conformance.LogsHash(logs)}); got != killDrivePin {
		t.Errorf("kill drive moved: got %#v, pinned %#v", got, killDrivePin)
	}
}

// singleDrive runs a scenario on one 8-CPU kernel with CFS only.
func singleDrive(sc traffic.Scenario, oc overload.Config) traffic.Report {
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	k.RegisterClass(policyCFS, kernel.NewCFS(k))
	d := traffic.NewDriver(k, sc, traffic.DriverConfig{Controller: overload.New(oc)})
	d.Start()
	k.RunUntilIdle()
	return traffic.Collect(d)
}

func TestFanoutCompletesOnLastSubrequest(t *testing.T) {
	sc := traffic.Scenario{
		Seed: 7, Rate: 50_000, Duration: 5 * time.Millisecond, DiurnalAmp: -1,
		Classes: []traffic.Class{
			{Name: "fan", Policy: policyCFS, Weight: 1, Work: 40 * time.Microsecond, Fanout: 4},
		},
	}
	rep := singleDrive(sc, overload.Config{Classes: []overload.ClassConfig{{Name: "fan"}}})
	c := rep.Classes[0]
	if c.Requests == 0 || c.Requests != c.Completed {
		t.Fatalf("fanout requests %d completed %d", c.Requests, c.Completed)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if c.P99 <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestChurnStormCollapsesConnections(t *testing.T) {
	base := traffic.Scenario{
		Seed: 11, Rate: 40_000, Duration: 5 * time.Millisecond, DiurnalAmp: -1,
		Classes: []traffic.Class{
			{Name: "kv", Policy: policyCFS, Weight: 1, Work: 10 * time.Microsecond,
				ReqPerConn: 4, Think: 100 * time.Microsecond},
		},
	}
	oc := overload.Config{Classes: []overload.ClassConfig{{Name: "kv"}}}
	calm := singleDrive(base, oc)

	churny := base
	churny.Shapes = []traffic.Shape{{Kind: traffic.Churn, Class: -1, At: 0, Dur: 5 * time.Millisecond, Mult: 1}}
	storm := singleDrive(churny, oc)

	// Same connection arrivals (Mult 1), but churned connections issue a
	// single request instead of 4.
	if calm.Requests < 3*storm.Requests {
		t.Fatalf("churn storm did not collapse request counts: calm %d, storm %d",
			calm.Requests, storm.Requests)
	}
	if storm.Connections == 0 || storm.Requests < storm.Connections {
		t.Fatalf("storm: %d conns, %d reqs", storm.Connections, storm.Requests)
	}
}

func TestDiurnalRegionalOffsets(t *testing.T) {
	sc := traffic.Scenario{
		Duration: 10 * time.Millisecond,
		Classes:  []traffic.Class{{Name: "c", Weight: 1}},
		Regions: []traffic.Region{
			{Name: "us", Share: 0.5},
			{Name: "eu", Share: 0.5, Offset: 5 * time.Millisecond},
		},
	}.WithDefaults()
	// Peak of us (t=2.5ms, sin=1) is the trough of eu (half-period off).
	fUS := sc.Factor(0, 2500*time.Microsecond, sc.Regions[0].Offset)
	fEU := sc.Factor(0, 2500*time.Microsecond, sc.Regions[1].Offset)
	if fUS < 1.35 || fUS > 1.45 {
		t.Fatalf("us peak factor %v, want ~1.4", fUS)
	}
	if fEU > 0.65 || fEU < 0.55 {
		t.Fatalf("eu trough factor %v, want ~0.6", fEU)
	}
}
