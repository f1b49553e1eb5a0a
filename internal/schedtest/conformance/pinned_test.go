package conformance

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/record"
	"enoki/internal/schedtest"
)

// pinnedLogs are FNV-1a hashes of the record log of each module class on
// Machine80: healthy with nice/affinity churn and a live upgrade mid-run,
// and under each fault injector through the kill and the rehome to CFS.
// They were captured at e17e4b5, the commit before the module crossing
// moved its per-task record into the class-data slot, drew tokens from
// chunks and switched the policies' run queues to core.Deque. Those are
// host-side changes only, so every message, reply, pick error and lock
// event a module sees must stay byte for byte what it was. A change that
// moves a hash has changed what modules observe; re-pin only with a stated
// reason.
var pinnedLogs = map[string]uint64{
	"fifo/healthy":     0xcedcfe126cb2f7fa,
	"fifo/panic":       0xe24e54e1aec47c90,
	"fifo/stall":       0xa30dd866bffad8fa,
	"fifo/forge":       0xcb3e6b0340e59cca,
	"fifo/leak":        0x33bda5edec82877e,
	"wfq/healthy":      0x15e01b63da777daa,
	"wfq/panic":        0xc3438cf61e4bb433,
	"wfq/stall":        0xa310a8632bdbe34d,
	"wfq/forge":        0xbda65744f0440494,
	"wfq/leak":         0x3672669c9cb9a812,
	"shinjuku/healthy": 0xd079f20d3a40c38a,
	"shinjuku/panic":   0x86d807d4153c9ab5,
	"shinjuku/stall":   0x158669059fa768ca,
	"shinjuku/forge":   0xab79a91f40068867,
	"shinjuku/leak":    0x9434dc0db728ecca,
	"arbiter/healthy":  0x302dda9e3f570af5,
	"arbiter/panic":    0x750cfa3dc8bef196,
	"arbiter/stall":    0xafd01a4a4de568fc,
	"arbiter/forge":    0xae074c7f949657ec,
	"arbiter/leak":     0xaf14910d2de6af73,
	"nest/healthy":     0xb720fde6a1cef6eb,
	"nest/panic":       0xef7f9a922c9d0128,
	"nest/stall":       0x3a8947898dd6b514,
	"nest/forge":       0x27be374b30498429,
	"nest/leak":        0xc54cc987d60dba6a,
	"locality/healthy": 0x566697e5048f72f4,
	"locality/panic":   0x8b22810139e0bfa2,
	"locality/stall":   0xd64b012074021552,
	"locality/forge":   0xb83de7d1fa1fb9ed,
	"locality/leak":    0x1a648141215427f0,
}

func TestRecordLogsPinned(t *testing.T) {
	variants := []struct {
		name string
		cfg  enokic.Config
		wrap func(core.Scheduler) core.Scheduler
	}{
		{"healthy", enokic.DefaultConfig(), nil},
		{"panic", enokic.DefaultConfig(), func(s core.Scheduler) core.Scheduler {
			return &schedtest.Panicky{Scheduler: s, PanicAfterPicks: 40}
		}},
		{"stall", starveCfg(), func(s core.Scheduler) core.Scheduler {
			return &schedtest.Staller{Scheduler: s, StallAfterPicks: 40}
		}},
		{"forge", enokic.DefaultConfig(), func(s core.Scheduler) core.Scheduler {
			return &schedtest.Injector{Scheduler: s, ForgeFrom: 20, ForgeCount: 30}
		}},
		{"leak", starveCfg(), func(s core.Scheduler) core.Scheduler {
			return &schedtest.Leaker{Scheduler: s, DropEvery: 7}
		}},
	}
	for _, c := range Cases() {
		if c.NewModule == nil {
			continue
		}
		for _, v := range variants {
			name := c.Name + "/" + v.name
			t.Run(name, func(t *testing.T) {
				r := NewRigOn(c, kernel.Machine80(), v.cfg, v.wrap)
				var buf bytes.Buffer
				rec := record.New(r.K, &buf, PolicyCFS, record.DefaultCosts())
				r.Adapter.SetRecorder(rec)
				if v.wrap == nil {
					r.K.Engine().After(3*time.Millisecond, func() {
						r.Adapter.UpgradeTo("v1", func(env core.Env) core.Scheduler {
							return c.NewModule(env, r.K.NumCPUs())
						}, nil)
					})
				}
				w := Workload{Seed: 0x51de, Tasks: 60, Churn: true, Budget: 300 * time.Millisecond}
				if done := w.Run(r); done != w.Tasks {
					t.Fatalf("%d/%d tasks completed", done, w.Tasks)
				}
				rec.Close()
				h := fnv.New64a()
				h.Write(buf.Bytes())
				if got := h.Sum64(); got != pinnedLogs[name] {
					t.Errorf("record log (%d bytes) hashes to %s, pinned %#x",
						buf.Len(), fmt.Sprintf("%#x", got), pinnedLogs[name])
				}
			})
		}
	}
}
