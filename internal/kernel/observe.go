package kernel

import (
	"enoki/internal/metrics"
	"enoki/internal/trace"
)

// Observability taps. Both are optional and default to off; a nil tracer or
// metric set keeps every hook a single branch on the hot path, and the live
// hooks record into preallocated rings/histograms so enabling them preserves
// the zero-allocation scheduling invariant.

// SetTracer installs (or removes, with nil) the kernel's event tracer.
func (k *Kernel) SetTracer(t *trace.Tracer) { k.tracer = t }

// Tracer returns the installed tracer, or nil.
func (k *Kernel) Tracer() *trace.Tracer { return k.tracer }

// SetMetrics installs (or removes, with nil) the kernel's metric set. Every
// already-registered class is pre-registered in the set so the scheduling
// hot path never performs a first-use create; classes registered later are
// added by RegisterClass.
func (k *Kernel) SetMetrics(s *metrics.Set) {
	k.met = s
	if s == nil {
		return
	}
	for _, slot := range k.classes {
		s.RegisterTiered(slot.id, slot.class.Name(), CrossingTierOf(slot.class))
	}
}

// Metrics returns the installed metric set, or nil.
func (k *Kernel) Metrics() *metrics.Set { return k.met }

// classID maps a class back to its policy id (-1 for classes the kernel no
// longer tracks, e.g. after a deregister).
func (k *Kernel) classID(c Class) int {
	if id, ok := k.idOf[c]; ok {
		return id
	}
	return -1
}

// traceTask emits an event about t, tagged with the policy id of its class.
// The id lookup sits behind the tracer check: these calls are on the wake,
// tick and exit paths of every run, traced or not.
func (k *Kernel) traceTask(kind trace.Kind, cpu int, t *Task, arg int64) {
	if k.tracer == nil {
		return
	}
	k.traceEvent(kind, cpu, t.pid, k.classID(t.class), arg)
}

// traceEvent emits into the tracer when one is installed.
func (k *Kernel) traceEvent(kind trace.Kind, cpu, pid, policy int, arg int64) {
	if k.tracer == nil {
		return
	}
	k.tracer.Emit(trace.Event{
		Ts:     int64(k.eng.Now()),
		Kind:   kind,
		CPU:    int32(cpu),
		PID:    int32(pid),
		Policy: int32(policy),
		Arg:    arg,
	})
}
