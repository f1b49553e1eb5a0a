package conformance

import (
	"bytes"
	"testing"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/record"
)

// shardedPin is what a pinned sharded run must reproduce: its per-shard
// record logs (LogsHash) and the counters beside them.
type shardedPin struct {
	Logs                  uint64
	Events, Ctx           uint64
	Workload, PingersDone int
}

func pinOf(r ShardedRunResult) shardedPin {
	return shardedPin{LogsHash(r.Logs), r.EventsFired, r.CtxSwitches, r.WorkloadDone, r.PingersDone}
}

// shardedPins are RecordShardedRun(c, Machine80, DefaultConfig, 0x5eed, 24,
// 120ms) per class, captured at 85aa9b0, where the serial and the parallel
// drive of every class still agreed byte for byte. They are the sharded
// executor's oracle across commits: a change that moves one has changed what
// a sharded machine does.
var shardedPins = map[string]shardedPin{
	"cfs":      {0x6c0dc1f9bab41595, 4620, 1762, 48, 6},
	"fifo":     {0xd1b7da1bf2b7712c, 7041, 2508, 48, 6},
	"wfq":      {0xf6533f4cded69de3, 6951, 2481, 48, 6},
	"shinjuku": {0x1fe332535edf842e, 7932, 2765, 48, 6},
	"arbiter":  {0x620ea7bdac92ac6f, 5783, 2256, 48, 6},
	"nest":     {0xf4c9ed289f6db821, 6782, 2569, 48, 6},
	"locality": {0xcd7ac0fc1c303f53, 7277, 2599, 48, 6},
}

// TestShardedRecordIdentity is the sharded executor's determinism gate: for
// every scheduler class, the sharded run must reproduce its pinned per-shard
// record logs and counters byte for byte, with cross-shard traffic delivered
// and, for module classes, every shard's log non-empty and decodable.
func TestShardedRecordIdentity(t *testing.T) {
	m := kernel.Machine80()
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			res := RecordShardedRun(c, m, enokic.DefaultConfig(), 0x5eed, 24, 120*time.Millisecond)
			if res.MsgsDelivered == 0 {
				t.Fatal("no cross-shard messages delivered — the epoch protocol was not exercised")
			}
			if got, want := pinOf(res), shardedPins[c.Name]; got != want {
				t.Errorf("sharded run moved:\n got    %#v\n pinned %#v", got, want)
			}
			if c.NewModule != nil {
				for i, log := range res.Logs {
					if len(log) == 0 {
						t.Fatalf("shard %d produced an empty record log", i)
					}
					if _, err := record.Load(bytes.NewReader(log)); err != nil {
						t.Fatalf("shard %d record log not decodable: %v", i, err)
					}
				}
			}
		})
	}
}

// TestShardedConformance runs the full invariant suite per shard: every
// workload task and every cross-shard pinger completes, no task leaks, and
// no checker violation — the sharded machine upholds everything the
// single-kernel machine does.
func TestShardedConformance(t *testing.T) {
	m := kernel.Machine80()
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			res := RecordShardedRun(c, m, enokic.DefaultConfig(), 0xC0, 30, 2*time.Second)
			if res.WorkloadDone != res.WorkloadTasks {
				t.Errorf("%d/%d workload tasks completed", res.WorkloadDone, res.WorkloadTasks)
			}
			if res.PingersDone != res.Pingers {
				t.Errorf("%d/%d cross-shard pingers completed — remote wakes lost", res.PingersDone, res.Pingers)
			}
			for _, v := range res.Violations {
				t.Errorf("invariant violation: %v", v)
			}
		})
	}
}

// TestShardedKernelMapping pins the global↔local CPU mapping and the
// sub-machine carve-up on the two-socket Xeon.
func TestShardedKernelMapping(t *testing.T) {
	m := kernel.Machine80()
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), 0)
	if sk.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", sk.NumShards())
	}
	for shard, wantCPUs := range map[int]int{0: 40, 1: 40} {
		if got := sk.ShardKernel(shard).NumCPUs(); got != wantCPUs {
			t.Errorf("shard %d has %d CPUs, want %d", shard, got, wantCPUs)
		}
	}
	if g := sk.GlobalCPU(1, 5); g != 45 {
		t.Errorf("GlobalCPU(1, 5) = %d, want 45", g)
	}
	if sh, lo := sk.ShardOfCPU(45); sh != 1 || lo != 5 {
		t.Errorf("ShardOfCPU(45) = (%d, %d), want (1, 5)", sh, lo)
	}
	sub := sk.ShardKernel(1).Topology()
	if sub.NumNodes != 1 || sub.NumLLCs != 4 {
		t.Errorf("shard 1 sub-machine: %d nodes / %d LLCs, want 1 / 4", sub.NumNodes, sub.NumLLCs)
	}
	if sk.Executor().Lookahead() != kernel.CostsFor(m).IPIDeliver+kernel.CostsFor(m).CrossNodeExtra {
		t.Errorf("default lookahead = %v", sk.Executor().Lookahead())
	}
}
