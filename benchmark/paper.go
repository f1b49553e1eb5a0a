package main

import (
	"fmt"
	"math"
	"time"

	"enoki"
	"enoki/internal/experiments"
)

// cellResult is one paper cell reproduced: the reference, our value at quick
// scale, and the relative error.
type cellResult struct {
	Table      string  `json:"table"`
	Row        string  `json:"row"`
	Col        string  `json:"col"`
	PaperUS    float64 `json:"paper_us"`
	OursUS     float64 `json:"ours_us"`
	ErrPct     float64 `json:"err_pct"`
	Divergence int     `json:"known_divergence,omitempty"`
}

// measuredCell is one cell an experiment produced.
type measuredCell struct {
	Row, Col string
	D        time.Duration
}

// paperExperiments maps an experiment name to the call that runs it at quick
// scale, serially, and flattens its result into cells.
var paperExperiments = map[string]func() []measuredCell{
	"table3": func() []measuredCell {
		var cs []measuredCell
		for _, r := range experiments.Table3(quick).Rows {
			cs = append(cs, measuredCell{r.Sched, colOneCore, r.OneCore}, measuredCell{r.Sched, colTwoCore, r.TwoCore})
		}
		return cs
	},
	"table4": func() []measuredCell {
		res := experiments.Table4(quick)
		var cs []measuredCell
		for _, c := range res.TwoWorkers {
			cs = append(cs, measuredCell{c.Sched, col2wP50, c.P50}, measuredCell{c.Sched, col2wP99, c.P99})
		}
		for _, c := range res.FortyWorkers {
			cs = append(cs, measuredCell{c.Sched, col40wP50, c.P50}, measuredCell{c.Sched, col40wP99, c.P99})
		}
		return cs
	},
	"table6": func() []measuredCell {
		var cs []measuredCell
		for _, r := range experiments.Table6(quick).Rows {
			cs = append(cs, measuredCell{r.Config, colP50, r.P50}, measuredCell{r.Config, colP99, r.P99})
		}
		return cs
	},
	"upgrade": func() []measuredCell {
		var cs []measuredCell
		cpus := []int{8, 80, 80} // §5.7's three configurations, in the harness's order
		for i, r := range experiments.Upgrade(quick).Rows {
			cs = append(cs, measuredCell{fmt.Sprintf("%dcpu_%dw", cpus[i], r.Workers), colBlack, r.Blackout})
		}
		return cs
	},
}

var quick = experiments.Options{Quick: true, Parallel: 1}

func paperWorkload() workload {
	return workload{Name: "paper_quick", Op: "paper cell reproduced",
		Why: "what a reader of the reproduction runs: the only workload through ghost, arachne, the workload models, hint queues and live upgrade, and the one place fidelity to the paper is a number",
		// The experiments fix their own inputs; the seed has nothing to vary.
		New: func(_ uint64, sz size) func(*tracer) rig {
			return func(tr *tracer) rig {
				buildPaperRigs()
				return &paperRig{names: sz.PaperExperiments, tr: tr}
			}
		}}
}

// buildPaperRigs is paper_quick's set-up. The experiments build their rigs
// inside the timed calls, where set-up cannot be told from running, so set-up
// is measured on rigs of its own: one of every scheduler kind Tables 3 and 4
// compare, on both of the paper's machines, built and dropped. Work a later
// change moves into NewSystem or Attach shows here.
func buildPaperRigs() {
	kinds := []experiments.Kind{experiments.KindCFS, experiments.KindGhostSOL, experiments.KindGhostFIFO,
		experiments.KindWFQ, experiments.KindShinjuku, experiments.KindLocality}
	for _, m := range []enoki.Machine{enoki.Machine8(), enoki.Machine80()} {
		for _, kind := range kinds {
			experiments.NewRig(m, kind)
		}
		experiments.NewArachneRig(m, 2, m.NumCPUs-1)
	}
}

type paperRig struct {
	names    []string
	tr       *tracer
	measured map[string][]measuredCell
	panics   map[string]any
}

func (r *paperRig) Run() {
	r.measured = make(map[string][]measuredCell)
	r.panics = make(map[string]any)
	for _, name := range r.names {
		r.tr.begin("experiments." + name)
		r.runOne(name)
		r.tr.end()
	}
}

// runOne turns a panicking experiment into a failed output check instead of a
// lost run.
func (r *paperRig) runOne(name string) {
	defer func() {
		if p := recover(); p != nil {
			r.panics[name] = p
		}
	}()
	r.measured[name] = paperExperiments[name]()
}

func (r *paperRig) Check() outcome {
	o := outcome{Counters: make(map[string]float64)}
	d := newDigest()
	for _, name := range r.names {
		want := 0
		for _, pc := range paperCells {
			if pc.Table == name {
				want++
			}
		}
		o.Ops += uint64(want)
		if p, ok := r.panics[name]; ok {
			o.fail(uint64(want), "experiment %s panicked: %v", name, p)
			continue
		}
		got := make(map[[2]string]time.Duration)
		for _, mc := range r.measured[name] {
			got[[2]string{mc.Row, mc.Col}] = mc.D
			d.word(uint64(mc.D))
		}
		var errSum float64
		for _, pc := range paperCells {
			if pc.Table != name {
				continue
			}
			v, ok := got[[2]string{pc.Row, pc.Col}]
			// time.Hour is the harness's stall sentinel.
			if !ok || v < 0 || v >= time.Hour {
				o.fail(1, "%s[%s,%s]: no finite value (%v)", name, pc.Row, pc.Col, v)
				continue
			}
			ours := float64(v) / float64(time.Microsecond)
			cr := cellResult{Table: name, Row: pc.Row, Col: pc.Col, PaperUS: pc.US, OursUS: ours,
				ErrPct: 100 * math.Abs(ours-pc.US) / pc.US, Divergence: pc.Divergence}
			o.Cells = append(o.Cells, cr)
			errSum += cr.ErrPct
		}
		o.Counters["experiments."+name+"_err_pct"] = errSum / float64(want)
	}
	o.Digest = d.sum()
	return o
}

// paperErrPct is the mean relative error over every reproduced cell.
func paperErrPct(cells []cellResult) float64 {
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		sum += c.ErrPct
	}
	return sum / float64(len(cells))
}
