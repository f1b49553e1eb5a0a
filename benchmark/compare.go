package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload × end-to-end metric row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// uncertainty is how far a stat's median can be trusted: the interquartile
// range of its reps over the square root of their number, about one standard
// error of a median.
func uncertainty(s stat) float64 {
	if s.N == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Sqrt(float64(s.N))
}

// judge compares a metric's old and new stat. The tolerance is the metric's
// bound as a share of the old median, or its slack where that is larger. When
// the two medians' own uncertainties add up to more than the tolerance the
// runs cannot show a change that small: the row is unresolved, not same.
func judge(def metricDef, old, new stat) string {
	tol := math.Max(def.Bound*math.Abs(old.Median), def.Slack)
	if uncertainty(old)+uncertainty(new) > tol {
		return verdictUnresolved
	}
	worse := new.Median - old.Median
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > tol:
		return verdictWorse
	case worse < -tol:
		return verdictBetter
	}
	return verdictSame
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compare prints one row per workload × end-to-end metric and returns how many
// rows are worse and how many unresolved. A higher fail_ratio is always worse.
func compare(w io.Writer, old, new *resultFile) (worse, unresolved int) {
	fmt.Fprintf(w, "old: commit %s seed %d size %s   new: commit %s seed %d size %s\n",
		old.Env.Commit, old.Env.Seed, old.Env.Size.Name, new.Env.Commit, new.Env.Seed, new.Env.Size.Name)
	fmt.Fprintf(w, "%-17s %-15s %-7s %12s %23s %12s %23s %16s %7s  %s\n", "workload", "metric", "time",
		"old median", "[q1, q3]", "new median", "[q1, q3]", "new/old", "bound", "verdict")
	byName := make(map[string]*workloadResult)
	for i := range old.Workloads {
		byName[old.Workloads[i].Workload] = &old.Workloads[i]
	}
	for i := range new.Workloads {
		n := &new.Workloads[i]
		o, ok := byName[n.Workload]
		if !ok {
			fmt.Fprintf(w, "%-17s only in the new file\n", n.Workload)
			continue
		}
		for _, def := range endToEnd {
			ov, ok1 := o.EndToEnd[def.Name]
			nv, ok2 := n.EndToEnd[def.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := judge(def, ov, nv)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			ratio := "-"
			if ov.Median != 0 {
				ratio = fmt.Sprintf("%.4fx of %.4g", nv.Median/ov.Median, ov.Median)
			}
			bound := fmt.Sprintf("%.1f%%", 100*def.Bound)
			if def.Slack > 0 {
				bound += fmt.Sprintf("+%g", def.Slack)
			}
			note := ""
			if def.Base == baseVirtual && v == verdictSame && ov.Median != nv.Median {
				note = "  (virtual time changed: a model change, within its bound)"
			}
			fmt.Fprintf(w, "%-17s %-15s %-7s %12.6g [%10.5g,%10.5g] %12.6g [%10.5g,%10.5g] %16s %7s  %s%s\n",
				n.Workload, def.Name, def.Base, ov.Median, ov.Q1, ov.Q3, nv.Median, nv.Q1, nv.Q3, ratio, bound, v, note)
		}
		if o.SimDigest != n.SimDigest {
			fmt.Fprintf(w, "%-17s sim_digest %s -> %s  (information: the simulated statistics differ)\n",
				n.Workload, o.SimDigest, n.SimDigest)
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	return worse, unresolved
}
