package chaos

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest/conformance"
)

// shardSalt separates the fault-window streams of different shards: every
// shard arms its own windows, drawn from its own sequence, all derived from
// the one campaign seed.
const shardSalt uint64 = 0x94d049bb133111eb

// shardedResult is one sharded campaign's outcome. Logs holds the raw
// per-shard record bytes; two runs of the same seed match field for field,
// Logs byte for byte.
type shardedResult struct {
	Verdict
	Logs          [][]byte
	WorkloadDone  int
	WorkloadTasks int
	PingersDone   int
	Pingers       int
	MsgsDelivered uint64
	EventsFired   uint64
	CtxSwitches   uint64
}

// armShardFaults derives one shard's kernel fault windows from the campaign
// seed — a pure function of (seed, shard), so every run of a seed arms
// identical windows. All four kernel planes fire inside the first half of
// the budget: IPI loss (modelled as recovery-bounded delay), IPI delay
// jitter, IPI duplication, and timer skew.
func armShardFaults(seed uint64, shard int, k *kernel.Kernel, budget time.Duration) {
	rng := ktime.NewRand(seed ^ kernelSalt ^ (shardSalt * uint64(shard+1)))
	kf := &kernelFaults{
		clock: func() int64 { return int64(k.Now()) },
		rng:   ktime.NewRand(rng.Uint64()),
	}
	window := func(dur time.Duration) (int64, int64) {
		at := int64(rng.Uint64() % uint64(budget/2))
		return at, at + int64(dur)
	}
	kf.dropFrom, kf.dropUntil = window(2 * time.Millisecond)
	kf.dropMag = int64(3 * time.Millisecond)
	kf.delayFrom, kf.delayUntil = window(2 * time.Millisecond)
	kf.delayMag = int64(50 * time.Microsecond)
	kf.dupFrom, kf.dupUntil = window(time.Millisecond)
	kf.dupMag = int64(30 * time.Microsecond)
	kf.skewFrom, kf.skewUntil = window(2 * time.Millisecond)
	kf.skewMag = int64(20 * time.Microsecond)
	k.SetFaultInjector(kf)
}

// shardedCampaign runs one seeded kernel-plane campaign for class on the
// two-socket machine partitioned per NUMA node: per-shard seeded workloads,
// cross-shard pinger traffic through the epoch-merge protocol, and per-shard
// fault windows (IPI drop/delay/dup, timer skew) armed from the seed. The
// campaign is deterministic end to end, record logs included; the sharded
// chaos tests below pin that under armed fault windows.
func shardedCampaign(seed uint64, class string, budget time.Duration, tasksPerShard int) shardedResult {
	c, ok := caseByName(class)
	if !ok {
		return shardedResult{Verdict: Verdict{[]string{fmt.Sprintf("unknown class %q", class)}}}
	}
	m := kernel.Machine80()
	r := conformance.NewShardedRig(c, m, enokic.DefaultConfig())
	n := r.SK.NumShards()
	bufs := make([]*bytes.Buffer, n)
	recs := make([]*record.Recorder, n)
	checkers := make([]*conformance.Checker, n)
	dones := make([]func() int, n)
	for i := 0; i < n; i++ {
		sub := r.Shards[i]
		if sub.Adapter != nil {
			bufs[i] = &bytes.Buffer{}
			recs[i] = record.New(sub.K, bufs[i], conformance.PolicyCFS, record.DefaultCosts())
			sub.Adapter.SetRecorder(recs[i])
		}
		armShardFaults(seed, i, sub.K, budget)
		w := conformance.Workload{Seed: seed ^ workloadSalt ^ uint64(i), Tasks: tasksPerShard, Churn: true}
		dones[i] = w.Spawn(sub)
		checkers[i] = conformance.StartChecker(sub, 500*time.Microsecond)
	}
	const pingers, cycles = 2, 10
	pingDone := r.CrossTraffic(pingers, cycles, 300*time.Microsecond)

	r.SK.RunFor(budget)

	res := shardedResult{
		Logs:          make([][]byte, n),
		WorkloadTasks: n * tasksPerShard,
		Pingers:       n * pingers,
		PingersDone:   pingDone(),
		MsgsDelivered: r.SK.Executor().MsgsDelivered(),
		EventsFired:   r.SK.EventsFired(),
		CtxSwitches:   r.SK.CtxSwitches(),
	}
	for i := 0; i < n; i++ {
		res.WorkloadDone += dones[i]()
		checkers[i].Stop()
		for _, v := range checkers[i].Violations {
			res.Violations = append(res.Violations, fmt.Sprintf("shard %d checker: %v", i, v))
		}
		if recs[i] != nil {
			recs[i].Close()
			res.Logs[i] = bufs[i].Bytes()
			if _, err := record.Load(bytes.NewReader(res.Logs[i])); err != nil {
				res.Violations = append(res.Violations, fmt.Sprintf("shard %d record log not decodable: %v", i, err))
			}
		}
	}
	return res
}

// shardedCampaignPin is what a pinned sharded campaign must reproduce.
type shardedCampaignPin struct {
	Logs                      uint64
	Msgs, Events, Ctx         uint64
	WorkloadDone, PingersDone int
}

// shardedCampaignPins are shardedCampaign(seed, "wfq", 120ms, 16) per seed,
// captured at 85aa9b0, where its serial and parallel drives still agreed
// byte for byte.
var shardedCampaignPins = map[uint64]shardedCampaignPin{
	1:          {0x3010837da24433b, 40, 5991, 1877, 32, 4},
	0x5eed:     {0x81c4263054d9d536, 40, 5260, 1737, 32, 4},
	0xbeefcafe: {0xdfb9250042ba62f2, 40, 5399, 1845, 32, 4},
}

// TestShardedCampaignIdentity is the chaos arm of the sharded determinism
// gate: with kernel fault windows armed on every shard, each seeded campaign
// must reproduce its pinned counters and per-shard record logs, deliver
// cross-shard traffic, leave no shard's log empty and trip no oracle.
func TestShardedCampaignIdentity(t *testing.T) {
	for _, seed := range []uint64{1, 0x5eed, 0xbeefcafe} {
		res := shardedCampaign(seed, "wfq", 120*time.Millisecond, 16)
		if res.MsgsDelivered == 0 {
			t.Fatalf("seed %#x: no cross-shard messages delivered", seed)
		}
		got := shardedCampaignPin{conformance.LogsHash(res.Logs), res.MsgsDelivered,
			res.EventsFired, res.CtxSwitches, res.WorkloadDone, res.PingersDone}
		if want := shardedCampaignPins[seed]; got != want {
			t.Errorf("seed %#x: campaign moved:\n got    %#v\n pinned %#v", seed, got, want)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %#x: %s", seed, v)
		}
		for i, log := range res.Logs {
			if len(log) == 0 {
				t.Errorf("seed %#x shard %d: empty record log", seed, i)
			}
		}
	}
}

// TestShardedCampaignSeedsDiffer guards against the campaign ignoring its
// seed: two different seeds must not produce the same record bytes.
func TestShardedCampaignSeedsDiffer(t *testing.T) {
	a := shardedCampaign(7, "wfq", 60*time.Millisecond, 12)
	b := shardedCampaign(8, "wfq", 60*time.Millisecond, 12)
	same := true
	for i := range a.Logs {
		if !bytes.Equal(a.Logs[i], b.Logs[i]) {
			same = false
		}
	}
	if same {
		t.Error("campaigns with different seeds produced identical record logs")
	}
}
