package main

import (
	"errors"
	"fmt"

	"enoki/internal/kernel"
)

// benchFlags is the parsed command line, normalized for validation. The
// *Set booleans record whether the user typed the flag (flag.Visit), so
// defaults never trip mode-specific rejections.
type benchFlags struct {
	Quick    bool
	Parallel int
	Cluster  bool
	Fleet    bool
	Rollout  bool
	Overload bool
	List     bool
	// MachineCPUs selects the per-machine topology of the fleet benchmark:
	// 8, 80, or 1000 CPUs.
	MachineCPUs int
	MachineSet  bool
	// Shards is the per-machine shard count: 0 picks one shard per NUMA
	// node; any explicit value must match the machine (shards are NUMA
	// nodes, like WithShards).
	Shards    int
	ShardsSet bool
	Args      []string
}

// machineFor maps the -machine flag to its topology.
func machineFor(cpus int) (kernel.Machine, bool) {
	switch cpus {
	case 8:
		return kernel.Machine8(), true
	case 80:
		return kernel.Machine80(), true
	case 1000:
		return kernel.Machine1000(), true
	}
	return kernel.Machine{}, false
}

// validate rejects incoherent flag combinations with a usage error before
// anything runs. The artifact modes (-cluster, -fleet, -rollout,
// -overload) are mutually exclusive, take at most one argument
// (the output path), and do not compose with the experiment-runner flags;
// -machine and -shards only parameterize -fleet, -rollout, and -overload,
// and a shard count can never exceed the machine's NUMA node count.
func validate(f benchFlags) error {
	mode := ""
	modes := 0
	for _, m := range []struct {
		on   bool
		name string
	}{{f.Cluster, "-cluster"}, {f.Fleet, "-fleet"},
		{f.Rollout, "-rollout"}, {f.Overload, "-overload"}} {
		if m.on {
			mode = m.name
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-cluster, -fleet, -rollout, and -overload are mutually exclusive")
	}
	if modes == 1 {
		if f.Quick {
			return fmt.Errorf("-quick applies to experiment runs, not %s", mode)
		}
		if f.Parallel != 1 {
			return fmt.Errorf("-parallel applies to experiment runs, not %s (the artifact modes fix their own drive)", mode)
		}
		if f.List {
			return fmt.Errorf("-list does not compose with %s", mode)
		}
		if len(f.Args) > 1 {
			return fmt.Errorf("%s takes at most one argument (the output file), got %d", mode, len(f.Args))
		}
	}
	if (f.MachineSet || f.ShardsSet) && !f.Fleet && !f.Rollout && !f.Overload {
		return errors.New("-machine and -shards parameterize -fleet, -rollout, and -overload only")
	}
	m, ok := machineFor(f.MachineCPUs)
	if !ok {
		return fmt.Errorf("-machine must be 8, 80, or 1000 (got %d)", f.MachineCPUs)
	}
	if f.Shards < 0 {
		return fmt.Errorf("-shards must be non-negative (got %d)", f.Shards)
	}
	if f.Shards > m.NumNodes {
		return fmt.Errorf("-shards %d exceeds the %d-CPU machine's %d NUMA nodes (shards are NUMA nodes)",
			f.Shards, m.NumCPUs, m.NumNodes)
	}
	if f.Shards != 0 && f.Shards != m.NumNodes {
		return fmt.Errorf("-shards %d does not match the %d-CPU machine's %d NUMA nodes (use 0 for auto)",
			f.Shards, m.NumCPUs, m.NumNodes)
	}
	if f.Parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1 (got %d)", f.Parallel)
	}
	return nil
}
