package chaos

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"enoki/internal/ktime"
)

// TestSpecsPinned is the "a spec string means exactly what it meant" gate.
// Each row hashes everything a list of specs produces under one
// configuration — the Enabled() rendering (so every generator draw), every
// violation string (so every oracle rule), the stats/report fields, and the
// record-log bytes where the family records — and, for the seeded-bug
// configurations, the ddmin result. The hashes were taken on the engine
// before the four families were folded into one; a refactor of the engine
// may not change a single one.
func TestSpecsPinned(t *testing.T) {
	classes := ClassNames()
	modules := classes[1:] // every class but the module-less CFS baseline
	if classes[0] != "cfs" {
		t.Fatalf("class table reordered: %v", classes)
	}
	// stream yields n generated specs round-robin over cs, seeds drawn the
	// way a campaign draws them.
	stream := func(master uint64, n int, cs []string, spec func(seed uint64, class string) string) []string {
		rng := ktime.NewRand(master)
		out := make([]string, n)
		for i := range out {
			out[i] = spec(rng.Uint64(), cs[i%len(cs)])
		}
		return out
	}
	v1 := func(seed uint64, class string) string { return Single.Generate(seed, class).Spec() }
	f1 := func(seed uint64, class string) string { return Fleet.Generate(seed, class).Spec() }
	r1 := func(seed uint64, class string) string { return Rollout.Generate(seed, class).Spec() }
	t1 := func(seed uint64, class string) string { return Traffic.Generate(seed, class).Spec() }

	v1Corpus := []string{v1(7, "wfq"), v1(3, "fifo")}
	for _, c := range classes {
		v1Corpus = append(v1Corpus, v1(42, c))
	}
	r1Bug := []string{rolloutSpec}
	for seed := uint64(1); seed <= 8; seed++ {
		r1Bug = append(r1Bug, r1(seed, "wfq"))
	}

	rows := []struct {
		name  string
		specs []string
		run   func(h hash.Hash64, spec string) // hashes one spec's whole outcome
		want  uint64
	}{
		{"v1/clean", append(v1Corpus, stream(0xe120c1, 28, classes, v1)...),
			pinV1(t, RunConfig{}, ""), 0x76b7f2fe42027f6f},
		{"v1/verified", stream(0x7e81f1ed, 7, classes, v1),
			pinV1(t, RunConfig{VerifiedTier: true}, ""), 0x73660710890f12aa},
		{"v1/norollback", []string{"v1:fifo:ba29107d460d80ee:3"},
			pinV1(t, RunConfig{NoRollback: true}, "v1:fifo:ba29107d460d80ee:1"), 0xa1435420fd2b32cb},
		{"v1/norollback-2", []string{"v1:shinjuku:37467eec32c27644:3"},
			pinV1(t, RunConfig{NoRollback: true}, "v1:shinjuku:37467eec32c27644:2"), 0xa90ac8c54668f0f4},
		{"f1/serial", append([]string{fleetSpec, "f1:wfq:5eed:1"}, stream(0xf1ee7, 21, classes, f1)...),
			pinF1(t, false), 0x42050b7e12431133},
		{"f1/parallel", []string{fleetSpec},
			pinF1(t, true), 0x31a045c5158a10a4},
		{"r1/clean", append([]string{rolloutSpec}, stream(0x7011, 24, modules, r1)...),
			pinR1(t, RolloutRunConfig{}, ""), 0x77998cde3e839f5},
		{"r1/parallel", []string{rolloutSpec},
			pinR1(t, RolloutRunConfig{Parallel: true}, ""), 0xd58e07f509b852be},
		{"r1/nodeathresolve-pinned", []string{rolloutSpec},
			pinR1(t, RolloutRunConfig{NoDeathResolve: true}, "r1:wfq:9:1"), 0x5e9524c09ad6dec3},
		{"r1/nodeathresolve", r1Bug,
			pinR1(t, RolloutRunConfig{NoDeathResolve: true}, ""), 0x974a094570d13c3a},
		{"t1/clean", append([]string{trafficSpec}, stream(0x7a1f, 21, classes, t1)...),
			pinT1(t, TrafficRunConfig{}, ""), 0xc548b3978e0e669d},
		{"t1/leakshed-pinned", []string{trafficSpec},
			pinT1(t, TrafficRunConfig{LeakShed: true}, "t1:shinjuku:2a:2"), 0x942701370379e305},
		{"t1/leakshed", stream(1, 12, []string{"shinjuku"}, t1),
			pinT1(t, TrafficRunConfig{LeakShed: true}, ""), 0x284682567ec7a525},
	}
	for _, row := range rows {
		h := fnv.New64a()
		for _, spec := range row.specs {
			fmt.Fprintf(h, "spec %s\n", spec)
			row.run(h, spec)
		}
		if got := h.Sum64(); got != row.want {
			t.Errorf("%s: %d specs hash to %#x, pinned %#x — a spec string changed meaning",
				row.name, len(row.specs), got, row.want)
		}
	}
}

// pinMin hashes a ddmin result and, when the row pins one, checks the
// minimized spec string itself so a drift reads as more than a hash.
func pinMin(t *testing.T, h hash.Hash64, spec, min, wantMin string, violations []string) {
	fmt.Fprintf(h, "min %s %q\n", min, violations)
	if wantMin != "" && min != wantMin {
		t.Errorf("%s minimizes to %s, pinned %s", spec, min, wantMin)
	}
}

func pinV1(t *testing.T, rc RunConfig, wantMin string) func(hash.Hash64, string) {
	return func(h hash.Hash64, spec string) {
		s, err := Single.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := Single.Run(s, rc)
		fmt.Fprintf(h, "%v %q %d/%d killed=%v %+v sched=%d hints=%d vk=%v vpicks=%d\n",
			s.Enabled(), r.Violations, r.Completed, r.Tasks, r.Killed, r.Stats,
			r.UpgradesScheduled, r.HintAttempts, r.VerifiedKilled, r.VerifiedPicks)
		if f := r.Failure; f != nil {
			fmt.Fprintf(h, "failure %s at=%v moved=%d down=%v\n", f.Fault, f.At, f.TasksMigrated, f.Downtime)
		}
		for _, u := range r.Upgrades {
			// WallSwap is host time; everything else is virtual.
			fault := "none"
			if u.Report.Fault != nil {
				fault = u.Report.Fault.String()
			}
			fmt.Fprintf(h, "upgrade faulty=%v blackout=%v deferred=%d rb=%v fault=%s err=%v\n", u.Faulty,
				u.Report.Blackout, u.Report.DeferredDelivered, u.Report.RolledBack, fault, u.Report.Err)
		}
		h.Write(r.RecordLog)
		if rc.NoRollback {
			min, mr := Single.Minimize(s, rc)
			pinMin(t, h, spec, min.Spec(), wantMin, mr.Violations)
		}
	}
}

func pinLogs(h hash.Hash64, logs [][][]byte) {
	for mi := range logs {
		for sh, l := range logs[mi] {
			fmt.Fprintf(h, "log m%d s%d %d\n", mi, sh, len(l))
			h.Write(l)
		}
	}
}

func pinF1(t *testing.T, parallel bool) func(hash.Hash64, string) {
	return func(h hash.Hash64, spec string) {
		s, err := Fleet.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := Fleet.Run(s, parallel)
		fmt.Fprintf(h, "%v %q %+v %+v\n", s.Enabled(), r.Violations, r.Stats, r.Jobs)
		pinLogs(h, r.Logs)
	}
}

func pinR1(t *testing.T, rc RolloutRunConfig, wantMin string) func(hash.Hash64, string) {
	return func(h hash.Hash64, spec string) {
		s, err := Rollout.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := Rollout.Run(s, rc)
		fmt.Fprintf(h, "%v %q %+v %+v resolved=%v %+v %+v\n", s.Enabled(), r.Violations,
			r.Stats, r.Jobs, r.Resolved, r.Report, r.Slots)
		pinLogs(h, r.Logs)
		if rc.NoDeathResolve {
			min, mr := Rollout.Minimize(s, rc)
			pinMin(t, h, spec, min.Spec(), wantMin, mr.Violations)
		}
	}
}

func pinT1(t *testing.T, rc TrafficRunConfig, wantMin string) func(hash.Hash64, string) {
	return func(h hash.Hash64, spec string) {
		s, err := Traffic.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := Traffic.Run(s, rc)
		fmt.Fprintf(h, "%v %q killed=%v fp=%x %+v\n", s.Enabled(), r.Violations, r.Killed,
			r.Report.Fingerprint(), r.Report)
		if f := r.Failure; f != nil {
			fmt.Fprintf(h, "failure %s at=%v moved=%d down=%v\n", f.Fault, f.At, f.TasksMigrated, f.Downtime)
		}
		if rc.LeakShed {
			min, mr := Traffic.Minimize(s, rc)
			pinMin(t, h, spec, min.Spec(), wantMin, mr.Violations)
			if spec == trafficSpec && (s.EnabledCount() != 2 || min.EnabledCount() != 1) {
				t.Errorf("%s shrinks %d→%d events, pinned 2→1", spec, s.EnabledCount(), min.EnabledCount())
			}
		}
	}
}
