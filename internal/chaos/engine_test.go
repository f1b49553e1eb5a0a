package chaos

import (
	"errors"
	"testing"
)

// TestSpecErrors pins the one parser's rejection of malformed specs for
// every family: each is refused with a *SpecError naming the offending
// field, never a bare error.
func TestSpecErrors(t *testing.T) {
	parse := map[string]func(string) error{
		"v1": func(s string) error { _, err := Single.Parse(s); return err },
		"f1": func(s string) error { _, err := Fleet.Parse(s); return err },
		"r1": func(s string) error { _, err := Rollout.Parse(s); return err },
		"t1": func(s string) error { _, err := Traffic.Parse(s); return err },
	}
	for _, row := range []struct{ family, spec, field string }{
		{"v1", "", "shape"},
		{"v1", "v1", "shape"},
		{"v1", "v1:wfq:1", "shape"},
		{"v1", "v1:wfq:1:1:1", "shape"},
		{"v1", "v2:wfq:1:1", "shape"},
		{"v1", "v1:nosuchclass:1:1", "class"},
		{"v1", "v1:wfq:xyz:1", "seed"},
		{"v1", "v1:wfq:1:xyz", "mask"},

		{"f1", "v1:wfq:5eed:3", "shape"}, // single-machine prefix on the fleet family
		{"f1", "f1:nosuch:5eed:3", "class"},
		{"f1", "f1:wfq:zz:3", "seed"},
		{"f1", "f1:wfq:5eed:gg", "mask"},
		{"f1", "f1:wfq:5eed", "shape"},       // missing mask
		{"f1", "f1:wfq:5eed:3:bad", "shape"}, // trailing part

		{"r1", "f1:wfq:9:7", "shape"}, // fleet prefix on the rollout family
		{"r1", "r1:nosuch:9:7", "class"},
		{"r1", "r1:cfs:9:7", "class"}, // class without an upgradable module
		{"r1", "r1:wfq:zz:7", "seed"},
		{"r1", "r1:wfq:9:gg", "mask"},
		{"r1", "r1:wfq:9", "shape"},
		{"r1", "r1:wfq:9:7:x", "shape"},
		{"r1", "r1", "shape"},
		{"r1", "", "shape"},

		{"t1", "v1:shinjuku:2a:3", "shape"},
		{"t1", "t1:shinjuku:2a", "shape"},
		{"t1", "t1::2a:3", "class"},
		{"t1", "t1:nosuch:2a:3", "class"},
		{"t1", "t1:shinjuku:zz:3", "seed"},
		{"t1", "t1:shinjuku:2a:zz", "mask"},
		{"t1", "t1:shinjuku:2a:ffffff", "mask"}, // mask beyond events
	} {
		err := parse[row.family](row.spec)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s.Parse(%q) = %v, want a *SpecError", row.family, row.spec, err)
			continue
		}
		if se.Field != row.field || se.Spec != row.spec {
			t.Errorf("%s.Parse(%q) blames %q in %q, want field %q", row.family, row.spec, se.Field, se.Spec, row.field)
		}
	}
}

// TestReplayCommandCarriesConfig: the one-liner names the spec and every
// seeded-bug switch the CLI exposes for the family, and nothing else.
func TestReplayCommandCarriesConfig(t *testing.T) {
	v, _ := Single.Parse("v1:fifo:ba29107d460d80ee:1")
	tr, _ := Traffic.Parse(trafficSpec)
	ro, _ := Rollout.Parse(rolloutSpec)
	fl, _ := Fleet.Parse(fleetSpec)
	for _, row := range []struct{ got, want string }{
		{Single.ReplayCommand(v, RunConfig{}), "enoki-chaos -replay v1:fifo:ba29107d460d80ee:1"},
		{Single.ReplayCommand(v, RunConfig{NoRollback: true, VerifiedTier: true}),
			"enoki-chaos -replay v1:fifo:ba29107d460d80ee:1 -norollback -verified"},
		{Traffic.ReplayCommand(tr, TrafficRunConfig{LeakShed: true}), "enoki-chaos -replay t1:shinjuku:2a:3 -leakshed"},
		{Rollout.ReplayCommand(ro, RolloutRunConfig{}), "enoki-chaos -replay r1:wfq:9:7"},
		{Fleet.ReplayCommand(fl, true), "enoki-chaos -replay f1:wfq:5eed:3"},
	} {
		if row.got != row.want {
			t.Errorf("replay command %q, want %q", row.got, row.want)
		}
	}
}
