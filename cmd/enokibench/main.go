// Command enokibench regenerates every table and figure from the paper's
// evaluation (§5). Each experiment prints the paper-style table it
// reproduces; DESIGN.md maps experiment ids to modules and EXPERIMENTS.md
// records paper-vs-measured.
//
// Usage:
//
//	enokibench [-quick] [-parallel N] [-list] [experiment ...]
//	enokibench -cluster [file]
//	enokibench -fleet [-machine 8|80|1000] [-shards N] [file]
//	enokibench -rollout [-machine 8|80|1000] [-shards N] [file]
//	enokibench -overload [-machine 8|80|1000] [-shards N] [file]
//
// With no experiment names, everything runs in paper order. -quick shrinks
// message counts and durations so the full suite finishes in well under a
// minute; without it, runs use paper-scale durations. -parallel N runs up
// to N independent experiment cells concurrently, each on its own simulated
// machine — results are byte-identical to a serial run. -cluster measures
// single-kernel vs sharded simulation throughput at 80 and 1,000 CPUs and
// writes BENCH_cluster.json (or the given file). -fleet additionally runs the
// cluster-of-machines benchmark — 1,000 simulated machines under the fleet
// executor with a machine failure mid-run, serial and parallel — and writes
// its SLO verdicts into the same document. -rollout is a superset of -fleet:
// it also drives a wave-based canary upgrade across the fleet — clean and
// with a seeded faulty build that halts the rollout and rolls every upgraded
// machine back — plus a chaos replay of the halt from its one-line r1: spec,
// and appends those verdicts to the document. -overload is a superset of
// -rollout: it also runs the internet-scale traffic-plane benchmark — an
// open-loop scenario with a diurnal curve, flash crowd, antagonist tenant,
// and churn storm against the admission/brownout control plane, serial and
// parallel, plus a pinned t1: chaos replay of the seeded LeakShed bug —
// and appends its SLO verdicts to the document.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"enoki/internal/bench"
	"enoki/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "shrink durations/message counts for a fast pass")
	parallel := flag.Int("parallel", 1, "run up to N experiment cells concurrently (same output as serial)")
	clusterMode := flag.Bool("cluster", false, "run cluster-scale sharded-vs-single throughput sweep, write BENCH_cluster.json, and exit")
	fleet := flag.Bool("fleet", false, "run the cluster sweep plus the 1,000-machine fleet benchmark, write BENCH_cluster.json, and exit")
	rollout := flag.Bool("rollout", false, "run the cluster sweep, fleet benchmark, and canary-rollout benchmark, write BENCH_cluster.json, and exit")
	overloadMode := flag.Bool("overload", false, "run the cluster sweep, fleet, rollout, and traffic-plane overload benchmarks, write BENCH_cluster.json, and exit")
	machine := flag.Int("machine", 8, "per-machine CPUs for -fleet/-rollout/-overload: 8, 80, or 1000")
	shards := flag.Int("shards", 0, "shards per machine for -fleet/-rollout/-overload (0 = one per NUMA node; must match the machine)")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: enokibench [-quick] [-parallel N] [-list] [experiment ...]\n"+
			"       enokibench -cluster [file]\n"+
			"       enokibench -fleet [-machine 8|80|1000] [-shards N] [file]\n"+
			"       enokibench -rollout [-machine 8|80|1000] [-shards N] [file]\n"+
			"       enokibench -overload [-machine 8|80|1000] [-shards N] [file]\n\nexperiments:\n")
		for _, s := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", s.Name, s.What)
		}
	}
	flag.Parse()

	f := benchFlags{
		Quick: *quick, Parallel: *parallel,
		Cluster: *clusterMode, Fleet: *fleet, Rollout: *rollout,
		Overload: *overloadMode, List: *list,
		MachineCPUs: *machine, Shards: *shards, Args: flag.Args(),
	}
	flag.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "machine":
			f.MachineSet = true
		case "shards":
			f.ShardsSet = true
		}
	})
	if err := validate(f); err != nil {
		fmt.Fprintf(os.Stderr, "enokibench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *clusterMode || *fleet || *rollout || *overloadMode {
		path := "BENCH_cluster.json"
		if flag.NArg() > 0 {
			path = flag.Arg(0)
		}
		var out *bench.ClusterOutput
		var err error
		switch {
		case *overloadMode:
			m, _ := machineFor(f.MachineCPUs)
			out, err = bench.WriteOverloadJSON(path, m)
		case *rollout:
			m, _ := machineFor(f.MachineCPUs)
			out, err = bench.WriteRolloutJSON(path, m)
		case *fleet:
			m, _ := machineFor(f.MachineCPUs)
			out, err = bench.WriteFleetJSON(path, m)
		default:
			out, err = bench.WriteClusterJSON(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "enokibench: %v\n", err)
			os.Exit(1)
		}
		for _, r := range out.Results {
			fmt.Printf("%5d CPUs  %-17s %2d shards  %10.1f wall ms  %12.0f events/s\n",
				r.CPUs, r.Mode, r.Shards, r.WallMS, r.EventsPerSec)
		}
		fmt.Printf("\nsharded-serial vs single: %.2fx at 80 CPUs, %.2fx at 1000 CPUs (GOMAXPROCS=%d)\n",
			out.SpeedupAt80, out.SpeedupAt1000, out.GOMAXPROCS)
		printSLOs := func(slos []bench.FleetSLO) {
			for _, s := range slos {
				verdict := "PASS"
				if !s.Pass {
					verdict = "FAIL"
				}
				fmt.Printf("  [%s] %-14s %s (target: %s)\n", verdict, s.Name, s.Measured, s.Target)
			}
		}
		var failed []string
		if fl := out.Fleet; fl != nil {
			fmt.Printf("\nfleet: %d machines × %d CPUs, %d jobs, %.1f virtual ms — serial %.0f ms, parallel %.0f ms wall\n",
				fl.Machines, fl.MachineCPUs, fl.Jobs, fl.VirtualMS, fl.WallSerialMS, fl.WallParallelMS)
			printSLOs(fl.SLOs)
			if !fl.Pass {
				failed = append(failed, "fleet")
			}
		}
		if ro := out.Rollout; ro != nil {
			fmt.Printf("\nrollout: %s %s over %d machines (canary %d, %d clean waves; faulty from machine %d halts wave %d, %d rolled back)\n",
				ro.Class, ro.Version, ro.Machines, ro.Canary, ro.CleanWaves,
				ro.FaultyFrom, ro.FaultyHaltedWave, ro.FaultyRolledBack)
			printSLOs(ro.SLOs)
			if !ro.Pass {
				failed = append(failed, "rollout")
			}
		}
		if ov := out.Overload; ov != nil {
			fmt.Printf("\noverload: %d CPUs × %d shards, %d connections, %d requests, %.1f virtual ms — serial %.0f ms, parallel %.0f ms wall\n",
				ov.MachineCPUs, ov.Shards, ov.Connections, ov.Requests,
				ov.VirtualMS, ov.WallSerialMS, ov.WallParallelMS)
			fmt.Printf("  admission: offered=%d admitted=%d shed=%d retried=%d dropped=%d (brownout enters=%d)\n",
				ov.Offered, ov.Admitted, ov.Shed, ov.Retried, ov.Dropped, ov.BrownoutEnters)
			printSLOs(ov.SLOs)
			if !ov.Pass {
				failed = append(failed, "overload")
			}
		}
		fmt.Printf("wrote %s\n", path)
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "enokibench: %s SLO verdicts failed\n", strings.Join(failed, " and "))
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, s := range experiments.All() {
			fmt.Printf("%-13s %s\n", s.Name, s.What)
		}
		return
	}

	names := flag.Args()
	var specs []experiments.Spec
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		specs = experiments.All()
	} else {
		for _, n := range names {
			s, ok := experiments.Find(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "enokibench: unknown experiment %q (try -list)\n", n)
				os.Exit(2)
			}
			specs = append(specs, s)
		}
	}

	opts := experiments.Options{Quick: *quick, Parallel: *parallel}
	for i, s := range specs {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		res := s.Run(opts)
		fmt.Print(res.String())
		fmt.Printf("[%s finished in %v]\n", s.Name, time.Since(start).Round(time.Millisecond))
	}
}
