package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"enoki/internal/experiments"
	"enoki/internal/kernel"
)

// benchFlags is the parsed, validated command line.
type benchFlags struct {
	Quick    bool
	Parallel int
	Cluster  bool
	Artifact bool
	List     bool
	// Machine is the per-machine template of -artifact (-machine 8, 80 or
	// 1000 CPUs).
	Machine kernel.Machine
	Args    []string
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

// parseFlags parses args and rejects incoherent combinations before anything
// runs, with the error and the usage on stderr. -cluster and -artifact are
// mutually exclusive and do not compose with the experiment-runner flags;
// -cluster takes no argument, -artifact at most one (the output file), and
// -machine parameterizes -artifact only.
func parseFlags(args []string, stderr io.Writer) (benchFlags, error) {
	var f benchFlags
	fs := flag.NewFlagSet("enokibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&f.Quick, "quick", false, "shrink durations/message counts for a fast pass")
	fs.IntVar(&f.Parallel, "parallel", 1, "run up to N experiment cells concurrently (same output as serial)")
	fs.BoolVar(&f.Cluster, "cluster", false, "print the single-vs-sharded throughput sweep at 80 and 1,000 CPUs (host time; writes nothing) and exit")
	fs.BoolVar(&f.Artifact, "artifact", false, "run the fleet, rollout and overload benchmarks, write their verdicts and fingerprints to BENCH_cluster.json (or the given file), and exit")
	cpus := fs.Int("machine", 8, "per-machine CPUs for -artifact: 8, 80, or 1000")
	fs.BoolVar(&f.List, "list", false, "list available experiments and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: enokibench [-quick] [-parallel N] [-list] [experiment ...]\n"+
			"       enokibench -cluster\n"+
			"       enokibench -artifact [-machine 8|80|1000] [file]\n\nexperiments:\n")
		for _, s := range experiments.All() {
			fmt.Fprintf(stderr, "  %-13s %s\n", s.Name, s.What)
		}
	}
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	f.Args = fs.Args()
	machineSet := false
	fs.Visit(func(fl *flag.Flag) { machineSet = machineSet || fl.Name == "machine" })
	err := validate(&f, *cpus, machineSet)
	if err != nil {
		fmt.Fprintf(stderr, "enokibench: %v\n", err)
		fs.Usage()
	}
	return f, err
}

// validate checks the parsed flags and resolves -machine.
func validate(f *benchFlags, cpus int, machineSet bool) error {
	mode := ""
	switch {
	case f.Cluster && f.Artifact:
		return errors.New("-cluster and -artifact are mutually exclusive")
	case f.Cluster:
		mode = "-cluster"
	case f.Artifact:
		mode = "-artifact"
	}
	if mode != "" {
		if f.Quick {
			return fmt.Errorf("-quick applies to experiment runs, not %s", mode)
		}
		if f.Parallel != 1 {
			return fmt.Errorf("-parallel applies to experiment runs, not %s (it fixes its own drive)", mode)
		}
		if f.List {
			return fmt.Errorf("-list does not compose with %s", mode)
		}
	}
	if f.Cluster && len(f.Args) > 0 {
		return fmt.Errorf("-cluster prints the sweep and takes no argument, got %d", len(f.Args))
	}
	if f.Artifact && len(f.Args) > 1 {
		return fmt.Errorf("-artifact takes at most one argument (the output file), got %d", len(f.Args))
	}
	if machineSet && !f.Artifact {
		return errors.New("-machine parameterizes -artifact only")
	}
	m, ok := machineFor(cpus)
	if !ok {
		return fmt.Errorf("-machine must be 8, 80, or 1000 (got %d)", cpus)
	}
	f.Machine = m
	if f.Parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1 (got %d)", f.Parallel)
	}
	return nil
}
