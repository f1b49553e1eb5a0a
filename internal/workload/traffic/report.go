package traffic

import (
	"time"

	"enoki/internal/overload"
	"enoki/internal/stats"
)

// ClassReport is one request class's merged measurement.
type ClassReport struct {
	Name      string        `json:"name"`
	Weight    float64       `json:"weight"`
	Requests  uint64        `json:"requests"`
	Completed uint64        `json:"completed"`
	LatSum    uint64        `json:"lat_sum_ns"`
	P50       time.Duration `json:"p50_ns"`
	P99       time.Duration `json:"p99_ns"`
	// FlashP50/FlashP99 cover only requests that arrived inside a flash
	// window — the flash-crowd latency SLO.
	FlashP50   time.Duration `json:"flash_p50_ns"`
	FlashP99   time.Duration `json:"flash_p99_ns"`
	FlashCount uint64        `json:"flash_count"`
	// AntagDone counts completions of requests that arrived while an
	// antagonist window was active — the fairness SLO's raw material.
	AntagDone uint64 `json:"antag_done"`
}

// Report is the merged outcome of one scenario drive.
type Report struct {
	Connections uint64        `json:"connections"`
	Requests    uint64        `json:"requests"`
	Classes     []ClassReport `json:"classes"`
	// Admission is the merged controller accounting per admission class;
	// Total sums them.
	Admission []overload.Counters `json:"admission"`
	Total     overload.Counters   `json:"total"`
	// Violations is every conservation violation found across shards
	// (empty on a healthy drive).
	Violations []string `json:"violations,omitempty"`
	// BrownoutEntered reports whether any class degraded; MaxRecovery is
	// the slowest completed enter→exit episode across shards and
	// classes, and Recovered whether every entered episode completed.
	BrownoutEntered bool          `json:"brownout_entered"`
	Recovered       bool          `json:"recovered"`
	MaxRecovery     time.Duration `json:"max_recovery_ns"`
}

// Collect merges the drivers of one drive (one per shard) into a Report
// and runs the conservation check, requiring every admitted request to
// have completed (the rig must be drained first).
func Collect(ds ...*Driver) Report {
	if len(ds) == 0 {
		return Report{}
	}
	sc := &ds[0].sc
	rep := Report{
		Classes:   make([]ClassReport, len(sc.Classes)),
		Admission: make([]overload.Counters, ds[0].ctl.NumClasses()),
		Recovered: true,
	}
	allH := make([]stats.LogHist, len(sc.Classes))
	flashH := make([]stats.LogHist, len(sc.Classes))
	for _, d := range ds {
		rep.Connections += d.conns
		for ci := range sc.Classes {
			cs := &d.cs[ci]
			cr := &rep.Classes[ci]
			cr.Requests += cs.requests
			cr.Completed += cs.completed
			cr.LatSum += cs.latSum
			cr.AntagDone += cs.antagDone
			allH[ci].Merge(&cs.all)
			flashH[ci].Merge(&cs.flash)
		}
		for ac := 0; ac < d.ctl.NumClasses(); ac++ {
			rep.Admission[ac] = rep.Admission[ac].Add(d.ctl.Counters(ac))
			if d.ctl.Counters(ac).BrownoutEnters > 0 {
				rep.BrownoutEntered = true
				if rec, ok := d.ctl.Recovery(ac); !ok || d.ctl.Degraded(ac) {
					rep.Recovered = false
				} else if rec > rep.MaxRecovery {
					rep.MaxRecovery = rec
				}
			}
		}
		rep.Violations = append(rep.Violations, d.ctl.CheckConservation(true)...)
	}
	for ci := range sc.Classes {
		cr := &rep.Classes[ci]
		cr.Name = sc.Classes[ci].Name
		cr.Weight = sc.Classes[ci].Weight
		cr.P50 = time.Duration(allH[ci].Quantile(0.50))
		cr.P99 = time.Duration(allH[ci].Quantile(0.99))
		cr.FlashP50 = time.Duration(flashH[ci].Quantile(0.50))
		cr.FlashP99 = time.Duration(flashH[ci].Quantile(0.99))
		cr.FlashCount = flashH[ci].Count()
		rep.Requests += cr.Requests
	}
	for _, n := range rep.Admission {
		rep.Total = rep.Total.Add(n)
	}
	return rep
}

// Fairness computes the Jain index over the victim classes' weighted
// completions inside antagonist windows: (Σx)²/(n·Σx²) with
// x_i = AntagDone_i / Weight_i, excluding the antagonist class itself.
// 1.0 is perfectly fair; it degrades toward 1/n as the antagonist
// starves some victims. Returns 1 when fewer than two victims measured.
func (r Report) Fairness(antagonist int) float64 {
	var sum, sumSq float64
	n := 0
	for ci := range r.Classes {
		if ci == antagonist || r.Classes[ci].Weight <= 0 {
			continue
		}
		x := float64(r.Classes[ci].AntagDone) / r.Classes[ci].Weight
		sum += x
		sumSq += x * x
		n++
	}
	if n < 2 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// ShedRate is shed unique requests over unique offers (retries of one
// request collapse into its first offer).
func (r Report) ShedRate() float64 {
	unique := r.Total.Offered - r.Total.Retried
	if unique == 0 {
		return 0
	}
	// A unique request was shed iff its final attempt dropped; admitted
	// requests are unique by definition (an admitted retry stops
	// retrying).
	return float64(r.Total.Dropped) / float64(unique)
}

// Fingerprint folds every deterministic counter of the report into one
// FNV-64a word: equal fingerprints mean two drives (or two machines)
// measured identical traffic.
func (r Report) Fingerprint() uint64 {
	h := uint64(1469598103934665603)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	word(r.Connections)
	word(r.Requests)
	for _, c := range r.Classes {
		word(c.Requests)
		word(c.Completed)
		word(c.LatSum)
		word(c.AntagDone)
		word(c.FlashCount)
	}
	for _, n := range r.Admission {
		word(n.Offered)
		word(n.Admitted)
		word(n.Shed)
		word(n.Retried)
		word(n.Dropped)
		word(n.BrownoutEnters)
		word(n.BrownoutExits)
	}
	word(uint64(len(r.Violations)))
	return h
}
