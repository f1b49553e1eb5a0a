// Command enokibench regenerates every table and figure from the paper's
// evaluation (§5). Each experiment prints the paper-style table it
// reproduces; DESIGN.md maps experiment ids to modules and EXPERIMENTS.md
// records paper-vs-measured.
//
// Usage:
//
//	enokibench [-quick] [-parallel N] [-list] [experiment ...]
//	enokibench -cluster
//	enokibench -artifact [-machine 8|80|1000] [file]
//
// With no experiment names, everything runs in paper order. -quick shrinks
// message counts and durations so the full suite finishes in well under a
// minute; without it, runs use paper-scale durations. -parallel N runs up
// to N independent experiment cells concurrently, each on its own simulated
// machine — results are byte-identical to a serial run. -cluster prints
// single-kernel vs sharded simulation throughput at 80 and 1,000 CPUs, a
// host-time measurement, and writes nothing. -artifact writes
// BENCH_cluster.json (or the given file): the verdicts, counts and
// fingerprints of the fleet benchmark (1,000 simulated machines with a
// machine failure mid-run, serial and parallel), the canary-rollout
// benchmark (a clean wave-based upgrade, a seeded faulty build that halts
// and rolls back, and a chaos replay from its one-line r1: spec) and the
// traffic-plane overload benchmark (an open-loop scenario with a diurnal
// curve, flash crowd, antagonist tenant and churn storm against the
// admission/brownout control plane, and a pinned t1: replay of the seeded
// LeakShed bug). Nothing in it is host time, so the same code writes the
// same bytes anywhere; it exits 1 when a verdict fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"enoki/internal/bench"
	"enoki/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit code, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	f, err := parseFlags(args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	case f.Cluster:
		sweep(stdout)
		return 0
	case f.Artifact:
		return artifact(f, stdout, stderr)
	case f.List:
		for _, s := range experiments.All() {
			fmt.Fprintf(stdout, "%-13s %s\n", s.Name, s.What)
		}
		return 0
	}

	var specs []experiments.Spec
	if len(f.Args) == 0 || (len(f.Args) == 1 && f.Args[0] == "all") {
		specs = experiments.All()
	} else {
		for _, n := range f.Args {
			s, ok := experiments.Find(n)
			if !ok {
				fmt.Fprintf(stderr, "enokibench: unknown experiment %q (try -list)\n", n)
				return 2
			}
			specs = append(specs, s)
		}
	}
	opts := experiments.Options{Quick: f.Quick, Parallel: f.Parallel}
	for i, s := range specs {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		start := time.Now()
		res := s.Run(opts)
		fmt.Fprint(stdout, res.String())
		fmt.Fprintf(stdout, "[%s finished in %v]\n", s.Name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// sweep prints the single-vs-sharded throughput sweep.
func sweep(stdout io.Writer) {
	rs := bench.RunCluster()
	for _, r := range rs {
		fmt.Fprintf(stdout, "%5d CPUs  %-17s %2d shards  %10.1f wall ms  %12.0f events/s  (%d events, %d switches)\n",
			r.CPUs, r.Mode, r.Shards, r.WallMS, r.EventsPerSec, r.Events, r.CtxSwitches)
	}
	fmt.Fprintf(stdout, "\nsharded-serial vs single: %.2fx at 80 CPUs, %.2fx at 1000 CPUs (GOMAXPROCS=%d)\n",
		rs[1].EventsPerSec/rs[0].EventsPerSec, rs[3].EventsPerSec/rs[2].EventsPerSec, runtime.GOMAXPROCS(0))
}

// artifact writes the cluster artifact. The file is created before any drive
// runs, so an unwritable path fails at once rather than after the run.
func artifact(f benchFlags, stdout, stderr io.Writer) int {
	path := "BENCH_cluster.json"
	if len(f.Args) > 0 {
		path = f.Args[0]
	}
	out, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "enokibench: %v\n", err)
		return 1
	}
	start := time.Now()
	a := bench.RunArtifact(f.Machine)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err = enc.Encode(a)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "enokibench: writing %s: %v\n", path, err)
		return 1
	}

	fl, ro, ov := a.Fleet, a.Rollout, a.Overload
	var failed []string
	for _, s := range []struct {
		name, head string
		v          bench.Verdicts
	}{
		{"fleet", fmt.Sprintf("%d machines × %d CPUs, %d jobs, %.1f virtual ms",
			fl.Machines, fl.MachineCPUs, fl.Jobs, fl.VirtualMS), fl.Verdicts},
		{"rollout", fmt.Sprintf("%s %s over %d machines (canary %d, %d clean waves; faulty from machine %d halts wave %d, %d rolled back)",
			ro.Class, ro.Version, ro.Machines, ro.Canary, ro.CleanWaves,
			ro.FaultyFrom, ro.FaultyHaltedWave, ro.FaultyRolledBack), ro.Verdicts},
		{"overload", fmt.Sprintf("%d CPUs × %d shards, %d connections, %d requests, %.1f virtual ms\n"+
			"  admission: offered=%d admitted=%d shed=%d retried=%d dropped=%d (brownout enters=%d)",
			ov.MachineCPUs, ov.Shards, ov.Connections, ov.Requests, ov.VirtualMS,
			ov.Offered, ov.Admitted, ov.Shed, ov.Retried, ov.Dropped, ov.BrownoutEnters), ov.Verdicts},
	} {
		fmt.Fprintf(stdout, "%s: %s\n", s.name, s.head)
		for _, slo := range s.v.SLOs {
			verdict := "PASS"
			if !slo.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(stdout, "  [%s] %-14s %s (target: %s)\n", verdict, slo.Name, slo.Measured, slo.Target)
		}
		if !s.v.Pass {
			failed = append(failed, s.name)
		}
	}
	fmt.Fprintf(stdout, "wrote %s\n[artifact finished in %v]\n", path, time.Since(start).Round(time.Millisecond))
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "enokibench: %s SLO verdicts failed\n", strings.Join(failed, " and "))
		return 1
	}
	return 0
}
