package enoki_test

import (
	"bytes"
	"testing"
	"time"

	"enoki"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/record"
	"enoki/internal/schedtest/conformance"
)

// equivRun is what one drive of a machine leaves behind: the record log, the
// engine's event count, the workload's completed tasks and the final clock.
type equivRun struct {
	log   []byte
	fired uint64
	done  int
	now   enoki.Time
}

// TestSystemMatchesKernelRig pins the front door to the bare kernel: a
// System built by NewSystem, with a conformance class attached above CFS and
// a recorder, must run exactly like the conformance rig that mounts the same
// class on a kernel.New machine. Every class, on the 8-core box and on the
// flat two-socket Machine80, under a bounded run and under RunUntilIdle: the
// record logs are byte for byte the same, and so are the events fired, the
// tasks done and the clock at the end.
func TestSystemMatchesKernelRig(t *testing.T) {
	const budget = 200 * time.Millisecond
	w := conformance.Workload{Seed: 0x5eed, Tasks: 24, Churn: true}
	// drive runs the workload on k, closing rec at the budget when the run
	// goes to idle (the recorder's drain task would keep it busy forever).
	drive := func(k *kernel.Kernel, rig *conformance.Rig, rec *record.Recorder, log *bytes.Buffer,
		idle bool, run func()) equivRun {
		done := w.Spawn(rig)
		if idle {
			k.Engine().PostAt(enoki.Time(0).Add(budget), rec.Close)
		}
		run()
		if !idle {
			rec.Close()
		}
		return equivRun{log: log.Bytes(), fired: k.Engine().Fired(), done: done(), now: k.Now()}
	}
	machines := []struct {
		name string
		m    enoki.Machine
	}{{"Machine8", enoki.Machine8()}, {"Machine80", enoki.Machine80()}}
	for _, c := range conformance.Cases() {
		for _, mc := range machines {
			m := mc.m
			for _, idle := range []bool{false, true} {
				name := c.Name + "/" + mc.name + "/RunFor"
				if idle {
					name = c.Name + "/" + mc.name + "/RunUntilIdle"
				}
				t.Run(name, func(t *testing.T) {
					var refLog bytes.Buffer
					r := conformance.NewRigOn(c, m, enokic.DefaultConfig(), nil)
					rec := record.New(r.K, &refLog, conformance.PolicyCFS, record.DefaultCosts())
					if r.Adapter != nil {
						r.Adapter.SetRecorder(rec)
					}
					ref := drive(r.K, r, rec, &refLog, idle, func() {
						if idle {
							r.K.RunUntilIdle()
						} else {
							r.K.RunFor(budget)
						}
					})

					var sysLog bytes.Buffer
					sys := enoki.NewSystem(enoki.WithMachine(m),
						enoki.WithRecorder(&sysLog, conformance.PolicyCFS))
					srig := &conformance.Rig{K: sys.Kernel(), Policy: conformance.PolicyCFS}
					if c.NewModule != nil {
						srig.Adapter = sys.MustAttach(conformance.PolicyTest, enoki.GoModule(func(env enoki.Env) enoki.Scheduler {
							return c.NewModule(env, m.NumCPUs)
						}))
						srig.Policy = conformance.PolicyTest
					}
					sys.RegisterCFS(conformance.PolicyCFS)
					got := drive(sys.Kernel(), srig, sys.Recorder(), &sysLog, idle, func() {
						if idle {
							sys.RunUntilIdle()
						} else {
							sys.Run(budget)
						}
					})
					if got.now != sys.Now() {
						t.Errorf("System.Now %v, its kernel's clock %v", sys.Now(), got.now)
					}

					if ref.done != w.Tasks || len(ref.log) == 0 && c.NewModule != nil {
						t.Fatalf("reference run: %d/%d tasks done, %d log bytes", ref.done, w.Tasks, len(ref.log))
					}
					if !bytes.Equal(got.log, ref.log) {
						t.Errorf("record logs differ: System %d bytes, kernel rig %d", len(got.log), len(ref.log))
					}
					if got.fired != ref.fired || got.done != ref.done || got.now != ref.now {
						t.Errorf("System fired %d events, did %d tasks, ended at %v; kernel rig %d, %d, %v",
							got.fired, got.done, got.now, ref.fired, ref.done, ref.now)
					}
				})
			}
		}
	}
}
