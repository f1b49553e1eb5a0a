package main

import (
	"strings"
	"testing"
)

// TestValidateFlags pins the CLI contract: artifact modes are mutually
// exclusive and reject experiment-runner flags, -machine/-shards belong to
// -fleet, -rollout, and -overload, and shard counts can never exceed the
// machine's NUMA nodes.
func TestValidateFlags(t *testing.T) {
	ok := func(f benchFlags) benchFlags {
		if f.Parallel == 0 {
			f.Parallel = 1
		}
		if f.MachineCPUs == 0 {
			f.MachineCPUs = 8
		}
		return f
	}
	cases := []struct {
		name    string
		f       benchFlags
		wantErr string // empty = valid
	}{
		{"defaults", ok(benchFlags{}), ""},
		{"experiments with parallel", ok(benchFlags{Parallel: 4, Args: []string{"upgrade"}}), ""},
		{"cluster", ok(benchFlags{Cluster: true}), ""},
		{"fleet", ok(benchFlags{Fleet: true}), ""},
		{"fleet 80-cpu machines", ok(benchFlags{Fleet: true, MachineCPUs: 80, MachineSet: true}), ""},
		{"fleet matching shards", ok(benchFlags{Fleet: true, MachineCPUs: 1000, MachineSet: true, Shards: 10, ShardsSet: true}), ""},
		{"rollout", ok(benchFlags{Rollout: true}), ""},
		{"rollout 80-cpu machines", ok(benchFlags{Rollout: true, MachineCPUs: 80, MachineSet: true}), ""},
		{"overload", ok(benchFlags{Overload: true}), ""},
		{"overload 80-cpu machines", ok(benchFlags{Overload: true, MachineCPUs: 80, MachineSet: true}), ""},
		{"overload matching shards", ok(benchFlags{Overload: true, MachineCPUs: 80, MachineSet: true, Shards: 2, ShardsSet: true}), ""},
		{"overload output file", ok(benchFlags{Overload: true, Args: []string{"out.json"}}), ""},

		{"cluster+fleet", ok(benchFlags{Cluster: true, Fleet: true}), "mutually exclusive"},
		{"overload+fleet", ok(benchFlags{Overload: true, Fleet: true}), "mutually exclusive"},
		{"overload+rollout", ok(benchFlags{Overload: true, Rollout: true}), "mutually exclusive"},
		{"overload with quick", ok(benchFlags{Overload: true, Quick: true}), "-quick applies to experiment runs"},
		{"overload with parallel", ok(benchFlags{Overload: true, Parallel: 4}), "-parallel applies to experiment runs"},
		{"overload with list", ok(benchFlags{Overload: true, List: true}), "-list does not compose"},
		{"overload two args", ok(benchFlags{Overload: true, Args: []string{"a", "b"}}), "at most one argument"},
		{"overload bogus machine", ok(benchFlags{Overload: true, MachineCPUs: 64, MachineSet: true}), "-machine must be 8, 80, or 1000"},
		{"overload shards exceed nodes", ok(benchFlags{Overload: true, MachineCPUs: 80, MachineSet: true, Shards: 4, ShardsSet: true}), "exceeds"},
		{"overload shards mismatch nodes", ok(benchFlags{Overload: true, MachineCPUs: 1000, MachineSet: true, Shards: 2, ShardsSet: true}), "does not match"},
		{"fleet+rollout", ok(benchFlags{Fleet: true, Rollout: true}), "mutually exclusive"},
		{"rollout with quick", ok(benchFlags{Rollout: true, Quick: true}), "-quick applies to experiment runs"},
		{"cluster with parallel", ok(benchFlags{Cluster: true, Parallel: 4}), "-parallel applies to experiment runs"},
		{"fleet with quick", ok(benchFlags{Fleet: true, Quick: true}), "-quick applies to experiment runs"},
		{"cluster with list", ok(benchFlags{Cluster: true, List: true}), "-list does not compose"},
		{"fleet two args", ok(benchFlags{Fleet: true, Args: []string{"a", "b"}}), "at most one argument"},
		{"machine outside fleet", ok(benchFlags{MachineCPUs: 80, MachineSet: true}), "parameterize -fleet, -rollout, and -overload only"},
		{"shards outside fleet", ok(benchFlags{Shards: 2, ShardsSet: true}), "parameterize -fleet, -rollout, and -overload only"},
		{"bogus machine", ok(benchFlags{Fleet: true, MachineCPUs: 64, MachineSet: true}), "-machine must be 8, 80, or 1000"},
		{"shards exceed nodes", ok(benchFlags{Fleet: true, MachineCPUs: 80, MachineSet: true, Shards: 4, ShardsSet: true}), "exceeds"},
		{"shards mismatch nodes", ok(benchFlags{Fleet: true, MachineCPUs: 1000, MachineSet: true, Shards: 2, ShardsSet: true}), "does not match"},
		{"negative shards", ok(benchFlags{Fleet: true, Shards: -1, ShardsSet: true}), "non-negative"},
		{"zero parallel", benchFlags{Parallel: 0, MachineCPUs: 8}, "-parallel must be at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(tc.f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", tc.f, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%+v) = %v, want error containing %q", tc.f, err, tc.wantErr)
			}
		})
	}
}
