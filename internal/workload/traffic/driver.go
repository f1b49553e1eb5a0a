package traffic

import (
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/overload"
	"enoki/internal/stats"
)

// shardSalt decorrelates per-shard arrival streams drawn from one
// scenario seed.
const shardSalt = 0x9e3779b97f4a7c15

// DriverConfig wires one Driver to its kernel shard.
type DriverConfig struct {
	// Controller is the shard's admission/brownout control plane
	// (required). Each shard owns its own controller; reports merge.
	Controller *overload.Controller
	// Adapters maps scheduler policy id → enokic adapter for brownout
	// delivery. Policies absent from the map (or mapped to nil) still
	// run the hysteresis machine but degrade nothing.
	Adapters map[int]*enokic.Adapter
	// Shard and Shards partition the scenario's regions: this driver
	// generates arrivals for regions r with r % Shards == Shard.
	// Shards 0 means a single unsharded driver owning every region.
	Shard, Shards int
	// SampleEvery is the brownout sampler period; 0 disables sampling.
	SampleEvery time.Duration
}

type classStats struct {
	requests  uint64 // admitted and spawned
	completed uint64
	latSum    uint64
	all       stats.LogHist
	flash     stats.LogHist // admissions that arrived inside a flash window
	antagDone uint64        // completions of arrivals inside antagonist windows
}

// Driver generates one scenario partition open-loop against one kernel.
// Construct with NewDriver, call Start before running the engine, and
// merge results with Collect once the rig has drained.
type Driver struct {
	sc      Scenario
	k       *kernel.Kernel
	ctl     *overload.Controller
	ads     map[int]*enokic.Adapter
	rng     *ktime.Rand
	regions []int
	sample  time.Duration

	conns uint64
	cs    []classStats

	// chunk is the unused remainder of the latest slab chunk of request
	// records, free the chain of finished ones; both grow on demand.
	chunk []reqRec
	free  *reqRec
	// spawnTask is (*kernel.Kernel).SpawnTransient, except in the recycling-
	// identity test, which runs the same drive over never-reused records.
	spawnTask func(k *kernel.Kernel, name string, classID int, b kernel.Behavior)
}

// reqRec is one request from first offer to closed books and, with no
// closure anywhere on that road, each thing the request needs in turn: the
// sim.Handler of its pending offer (a connection's follow-up request, a shed
// request's retry), then the request task's kernel.Behavior and
// kernel.Exiter. A fan-out request's further subrequest tasks get a record
// each, pointing at it. Records come from 256-record slab chunks and go back
// on the driver's free list when the request is dropped or completes.
type reqRec struct {
	d *Driver
	// next links free records; parent is set on a fan-out subrequest.
	next, parent *reqRec
	arrival      time.Duration
	work         time.Duration // the task's service burst
	ci           int32
	attempt      int32
	remaining    int32 // fan-out subrequests still running
}

func (d *Driver) newRec(ci int, arrival time.Duration) *reqRec {
	r := d.free
	if r != nil {
		d.free = r.next
	} else {
		if len(d.chunk) == 0 {
			d.chunk = make([]reqRec, 256)
		}
		r, d.chunk = &d.chunk[0], d.chunk[1:]
	}
	*r = reqRec{d: d, ci: int32(ci), arrival: arrival}
	return r
}

func (d *Driver) freeRec(r *reqRec) { r.next, d.free = d.free, r }

// Fire implements sim.Handler: the pending offer comes due.
func (r *reqRec) Fire() { r.d.offer(r) }

// Next implements kernel.Behavior: one service burst, then exit.
func (r *reqRec) Next(*kernel.Kernel, *kernel.Task) kernel.Action {
	return kernel.Action{Run: r.work, Op: kernel.OpExit}
}

// Exited implements kernel.Exiter: the last of a request's tasks to exit
// closes its books.
func (r *reqRec) Exited(*kernel.Task) {
	p := r
	if r.parent != nil {
		p = r.parent
		r.d.freeRec(r)
	}
	if p.remaining--; p.remaining == 0 {
		p.d.complete(p)
	}
}

// NewDriver builds a driver for its shard's slice of the scenario.
func NewDriver(k *kernel.Kernel, sc Scenario, dc DriverConfig) *Driver {
	if dc.Controller == nil {
		panic("traffic: NewDriver without a Controller")
	}
	sc = sc.WithDefaults()
	shards := dc.Shards
	if shards <= 0 {
		shards = 1
	}
	d := &Driver{
		sc:        sc,
		k:         k,
		ctl:       dc.Controller,
		ads:       dc.Adapters,
		rng:       ktime.NewRand(sc.Seed ^ (uint64(dc.Shard)+1)*shardSalt),
		sample:    dc.SampleEvery,
		cs:        make([]classStats, len(sc.Classes)),
		spawnTask: (*kernel.Kernel).SpawnTransient,
	}
	for ri := range sc.Regions {
		if ri%shards == dc.Shard%shards {
			d.regions = append(d.regions, ri)
		}
	}
	return d
}

// Start arms the arrival tick loop and the brownout sampler on the
// driver's engine. Call once, before running.
func (d *Driver) Start() {
	if len(d.regions) > 0 {
		d.k.Engine().Post(0, d.tick)
	}
	if d.sample > 0 {
		d.k.Engine().Post(d.sample, d.brownoutSample)
	}
}

// Connections returns how many connections this driver has opened.
func (d *Driver) Connections() uint64 { return d.conns }

// Controller returns the shard's overload controller.
func (d *Driver) Controller() *overload.Controller { return d.ctl }

func (d *Driver) now() time.Duration { return time.Duration(d.k.Now()) }

// tick generates one arrival quantum for every owned region × class and
// re-arms itself until the scenario's Duration.
func (d *Driver) tick() {
	now := d.now()
	if now >= d.sc.Duration {
		return
	}
	for _, ri := range d.regions {
		for ci := range d.sc.Classes {
			d.arrivals(ci, ri, now)
		}
	}
	d.k.Engine().Post(d.sc.Tick, d.tick)
}

// arrivals opens this tick's connections for one region × class pair.
// The expected count is rate × tick; the fractional remainder becomes
// one extra connection by a seeded Bernoulli draw, so the long-run rate
// is exact without per-connection Poisson machinery.
func (d *Driver) arrivals(ci, ri int, now time.Duration) {
	c := &d.sc.Classes[ci]
	r := &d.sc.Regions[ri]
	rate := d.sc.Rate * c.Weight * r.Share * d.sc.Factor(ci, now, r.Offset)
	if rate <= 0 {
		return
	}
	exp := rate * d.sc.Tick.Seconds()
	n := int(exp)
	if d.rng.Bernoulli(exp - float64(n)) {
		n++
	}
	churn := d.sc.churnAt(ci, now)
	for i := 0; i < n; i++ {
		d.conns++
		reqs := c.ReqPerConn
		if churn {
			reqs = 1
		}
		d.offer(d.newRec(ci, now))
		for j := 1; j < reqs; j++ {
			at := now + time.Duration(j)*c.Think
			d.k.Engine().PostToAt(ktime.Time(at), d.newRec(ci, at))
		}
	}
}

// offer runs one request attempt through admission. Shed requests cost
// no kernel events: a Retry re-offers after backoff, a Drop vanishes
// (the controller keeps the books either way).
func (d *Driver) offer(r *reqRec) {
	ac := d.sc.Classes[r.ci].Admission
	switch d.ctl.Admit(ac, int(r.attempt)) {
	case overload.Admitted:
		d.spawn(r)
	case overload.Retry:
		d.k.Engine().PostTo(d.ctl.Backoff(ac, int(r.attempt)), r)
		r.attempt++
	case overload.Dropped:
		d.freeRec(r)
	}
}

// spawn runs one admitted request: a single service task, or Fanout
// backend subrequests that complete the request when the last one exits
// (the nginx model — one frontend request fans to upstream workers and
// responds at the slowest one). The request's record runs the first task,
// and each service time is drawn just before its task is spawned.
func (d *Driver) spawn(r *reqRec) {
	c := &d.sc.Classes[r.ci]
	d.cs[r.ci].requests++
	n := max(c.Fanout, 1)
	r.remaining = int32(n)
	for i := 0; i < n; i++ {
		sub := r
		if i > 0 {
			sub = d.newRec(int(r.ci), r.arrival)
			sub.parent = r
		}
		sub.work = d.rng.ExpDuration(c.Work / time.Duration(n))
		d.spawnTask(d.k, c.Name, c.Policy, sub)
	}
}

// complete closes one admitted request's books, records its latency and
// frees its record.
func (d *Driver) complete(r *reqRec) {
	ci, arrival := int(r.ci), r.arrival
	d.freeRec(r)
	d.ctl.Done(d.sc.Classes[ci].Admission)
	lat := d.now() - arrival
	cs := &d.cs[ci]
	cs.completed++
	cs.latSum += uint64(lat)
	cs.all.Record(lat)
	if d.sc.inShape(Flash, ci, arrival) {
		cs.flash.Record(lat)
	}
	if d.sc.antagonistActive(arrival) {
		cs.antagDone++
	}
}

// brownoutSample feeds per-admission-class queue depths into the
// hysteresis machine and delivers state changes to the class's module.
// It re-arms itself until arrivals have stopped and every class has
// recovered, so a drained rig goes idle.
func (d *Driver) brownoutSample() {
	now := d.k.Now()
	active := false
	for ac := 0; ac < d.ctl.NumClasses(); ac++ {
		cc := d.ctl.Class(ac)
		if cc.EnterDepth <= 0 {
			continue
		}
		depth := d.k.ClassDepth(cc.Policy)
		if d.ctl.Sample(ac, depth, int64(now)) {
			if a := d.ads[cc.Policy]; a != nil {
				a.SetDegraded(d.ctl.Degraded(ac))
			}
		}
		if d.ctl.Degraded(ac) {
			active = true
		}
	}
	if time.Duration(now) < d.sc.Duration || active {
		d.k.Engine().Post(d.sample, d.brownoutSample)
	}
}
