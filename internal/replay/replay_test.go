package replay_test

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/record"
	"enoki/internal/replay"
	"enoki/internal/sched/wfq"
	"enoki/internal/sim"
)

const (
	policyCFS = 0
	policyWFQ = 1
)

// recordedRun records a pipe workload on the WFQ scheduler and returns the
// serialised log plus run statistics.
func recordedRun(t *testing.T, messages int) (*bytes.Buffer, *record.Recorder, time.Duration) {
	t.Helper()
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	ad := enokic.Load(k, policyWFQ, enokic.DefaultConfig(), func(env core.Env) core.Scheduler {
		return wfq.New(env, policyWFQ)
	})
	k.RegisterClass(policyCFS, kernel.NewCFS(k))
	var buf bytes.Buffer
	rec := record.New(k, &buf, policyCFS, record.DefaultCosts())
	ad.SetRecorder(rec)

	var a, b *kernel.Task
	count := 0
	var finished time.Duration
	mk := func(peer **kernel.Task, starts bool) kernel.Behavior {
		started := false
		return kernel.BehaviorFunc(func(k *kernel.Kernel, tk *kernel.Task) kernel.Action {
			if starts && !started {
				started = true
				return kernel.Action{Run: 300 * time.Nanosecond, Wake: []*kernel.Task{*peer}, Op: kernel.OpBlock}
			}
			count++
			if count >= 2*messages {
				finished = time.Duration(k.Now())
				return kernel.Action{Op: kernel.OpExit}
			}
			return kernel.Action{Run: 300 * time.Nanosecond, Wake: []*kernel.Task{*peer}, Op: kernel.OpBlock}
		})
	}
	a = k.Spawn("a", policyWFQ, mk(&b, true), kernel.WithAffinity(kernel.SingleCPU(0)))
	b = k.Spawn("b", policyWFQ, mk(&a, false), kernel.WithAffinity(kernel.SingleCPU(0)))
	k.RunFor(10 * time.Second)
	if count < 2*messages {
		t.Fatalf("recorded workload stalled at %d", count)
	}
	rec.Close()
	return &buf, rec, finished
}

func TestRecordProducesLog(t *testing.T) {
	buf, rec, _ := recordedRun(t, 200)
	if rec.Entries == 0 {
		t.Fatal("nothing recorded")
	}
	if buf.Len() == 0 {
		t.Fatal("log file empty")
	}
	entries, err := record.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	msgs, locks := 0, 0
	for _, e := range entries {
		switch {
		case e.Msg != nil:
			msgs++
		case e.Lock != nil:
			locks++
		}
	}
	if msgs < 200 || locks < 200 {
		t.Fatalf("log too small: %d msgs, %d lock ops", msgs, locks)
	}
}

func TestRecordSlowsTheRun(t *testing.T) {
	// §5.8: record mode is several times slower than native operation.
	_, _, recTime := recordedRun(t, 300)

	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	enokic.Load(k, policyWFQ, enokic.DefaultConfig(), func(env core.Env) core.Scheduler {
		return wfq.New(env, policyWFQ)
	})
	k.RegisterClass(policyCFS, kernel.NewCFS(k))
	var a, b *kernel.Task
	count := 0
	var nativeTime time.Duration
	mk := func(peer **kernel.Task, starts bool) kernel.Behavior {
		started := false
		return kernel.BehaviorFunc(func(k *kernel.Kernel, tk *kernel.Task) kernel.Action {
			if starts && !started {
				started = true
				return kernel.Action{Run: 300 * time.Nanosecond, Wake: []*kernel.Task{*peer}, Op: kernel.OpBlock}
			}
			count++
			if count >= 600 {
				nativeTime = time.Duration(k.Now())
				return kernel.Action{Op: kernel.OpExit}
			}
			return kernel.Action{Run: 300 * time.Nanosecond, Wake: []*kernel.Task{*peer}, Op: kernel.OpBlock}
		})
	}
	a = k.Spawn("a", policyWFQ, mk(&b, true), kernel.WithAffinity(kernel.SingleCPU(0)))
	b = k.Spawn("b", policyWFQ, mk(&a, false), kernel.WithAffinity(kernel.SingleCPU(0)))
	k.RunFor(10 * time.Second)

	ratio := float64(recTime) / float64(nativeTime)
	if ratio < 2 || ratio > 20 {
		t.Fatalf("record slowdown = %.1fx (rec %v vs native %v), want several-fold", ratio, recTime, nativeTime)
	}
}

// recordedLogPin is the FNV-1a hash of recordedRun(300)'s log at e17e4b5,
// before the module crossing became allocation-free. What the replayed
// module is fed must not have moved with the host-side change.
const recordedLogPin = 0xd908c403014ca821

func TestReplayMatchesRecording(t *testing.T) {
	buf, _, _ := recordedRun(t, 300)
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got := h.Sum64(); got != recordedLogPin {
		t.Errorf("record log hashes to %#x, pinned %#x", got, uint64(recordedLogPin))
	}
	res, err := replay.Replay(bytes.NewReader(buf.Bytes()),
		replay.Config{NumCPUs: 8},
		func(env core.Env) core.Scheduler { return wfq.New(env, policyWFQ) })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Messages < 300 {
		t.Fatalf("replayed only %d messages", res.Messages)
	}
	if len(res.Divergences) != 0 {
		t.Fatalf("replay diverged: %v", res.Divergences[:min(3, len(res.Divergences))])
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time measured")
	}
}

func TestReplayDetectsChangedScheduler(t *testing.T) {
	// Replaying a WFQ log against a policy-altered module should produce
	// divergences, not silence: this is the validation §3.4 promises.
	buf, _, _ := recordedRun(t, 200)
	res, err := replay.Replay(bytes.NewReader(buf.Bytes()),
		replay.Config{NumCPUs: 8},
		func(env core.Env) core.Scheduler { return &alwaysIdle{Sched: wfq.New(env, policyWFQ)} })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(res.Divergences) == 0 {
		t.Fatal("modified scheduler replayed without divergence")
	}
	if !strings.Contains(res.Divergences[0], "pick_next_task") {
		t.Fatalf("unexpected divergence: %s", res.Divergences[0])
	}
}

// alwaysIdle wraps WFQ but never picks anything.
type alwaysIdle struct {
	*wfq.Sched
}

func (a *alwaysIdle) PickNextTask(cpu int, curr *core.Schedulable, rt time.Duration) *core.Schedulable {
	a.Sched.PickNextTask(cpu, curr, rt) // keep internal state moving
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
