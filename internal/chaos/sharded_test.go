package chaos

import (
	"bytes"
	"testing"
	"time"

	"enoki/internal/schedtest/conformance"
)

// shardedCampaignPin is what a pinned sharded campaign must reproduce.
type shardedCampaignPin struct {
	Logs                      uint64
	Msgs, Events, Ctx         uint64
	WorkloadDone, PingersDone int
}

// shardedCampaignPins are ShardedCampaign(seed, "wfq", 120ms, 16) per seed,
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
		res := ShardedCampaign(seed, "wfq", 120*time.Millisecond, 16)
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
	a := ShardedCampaign(7, "wfq", 60*time.Millisecond, 12)
	b := ShardedCampaign(8, "wfq", 60*time.Millisecond, 12)
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
