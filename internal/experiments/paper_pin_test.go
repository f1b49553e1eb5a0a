package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"enoki/internal/kernel"
	"enoki/internal/workload"
)

// paperPins fingerprints every virtual-time cell of the paper's experiments
// at quick scale. A change to a scheduler model, a workload model or the
// simulated kernel that is meant to be a pure host-time optimisation must
// leave every hash here as it is; a constant that moves is a changed
// simulation. Host-clock fields (§5.7's Go swap time, §5.8's replay parse
// and run times) are left out: they differ on every run.
var paperPins = []struct {
	name  string
	cells func(Options) any
	want  uint64
}{
	{"table3", func(o Options) any { return Table3(o) }, 0x74e9e03fd66dfb3c},
	{"table4", func(o Options) any { return Table4(o) }, 0xfb784989604d3df7},
	{"table5", func(o Options) any { return Table5(o) }, 0x99e1b75713b85b84},
	{"table6", func(o Options) any { return Table6(o) }, 0x8df492862f635493},
	{"fig2a", func(o Options) any { return Fig2(o, false) }, 0x479637620bed0171},
	{"fig2b", func(o Options) any { return Fig2(o, true) }, 0x9276d049c5956ed2},
	{"fig3", func(o Options) any { return Fig3(o) }, 0xc14e160ee74e923d},
	{"upgrade", func(o Options) any {
		rows := Upgrade(o).Rows
		for i := range rows {
			rows[i].WallSwap = 0
		}
		return rows
	}, 0xfc094c51b0acd036},
	{"recordreplay", func(o Options) any {
		r := RecordReplay(o)
		return []any{r.Messages, r.NativeTime, r.RecordTime, r.LogEntries, r.LogDropped, r.ReplayedMsgs, r.Divergences}
	}, 0xa44df86b3f35bd36},
}

// TestPaperCellsPinned runs each experiment at quick scale with a parallel
// runner (whose output equals the serial one, TestParallelMatchesSerial*)
// and compares an FNV-64a hash of its cells with the pinned value.
func TestPaperCellsPinned(t *testing.T) {
	o := Options{Quick: true, Parallel: 4}
	for _, p := range paperPins {
		t.Run(p.name, func(t *testing.T) {
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", p.cells(o))
			if got := h.Sum64(); got != p.want {
				t.Errorf("%s cells hash %#x, pinned %#x", p.name, got, p.want)
			}
		})
	}
}

// TestBusyPollEventRatchets bounds the engine events of the two quick cells
// that busy-poll hardest: Table 4's 40-worker Arachne cell, whose idle
// activations spin, and Table 3's same-core SOL pipe cell, whose ghOSt agent
// spins between messages. Polled one event per poll they fired about
// 2,107,000 and 493,000 events; an idle stretch now runs as one segment.
func TestBusyPollEventRatchets(t *testing.T) {
	o := Options{Quick: true}
	r, rt := NewArachneRig(kernel.Machine80(), 2, 79)
	rt.StartEstimator()
	workload.RunArachneSchbench(r.K, rt, workload.SchbenchConfig{
		Policy:         PolicyEnoki,
		MessageThreads: 2,
		WorkersPerMsg:  40,
		Warmup:         scaleDur(o, 5*time.Second, 100*time.Millisecond),
		Duration:       scaleDur(o, 5*time.Second, 400*time.Millisecond),
	})
	arachne := r.K.Engine().Fired()
	if arachne > 60000 {
		t.Errorf("Table 4's 40-worker Arachne cell fired %d events, want at most 60,000", arachne)
	}

	r = NewRig(kernel.Machine8(), KindGhostSOL)
	workload.RunPipe(r.K, workload.PipeConfig{Policy: r.Policy, Messages: scaleInt(o, 300000, 20000), SameCore: true})
	sol := r.K.Engine().Fired()
	if sol > 150000 {
		t.Errorf("Table 3's same-core SOL pipe cell fired %d events, want at most 150,000", sol)
	}
	t.Logf("events: Arachne cell %d, SOL pipe cell %d", arachne, sol)
}
