// Cluster admission is the fleet's front door: job offers pass through an
// overload.Controller before Submit, so a flash crowd sheds at the control
// plane instead of piling unbounded Pending jobs onto the placer. Shed
// offers with retries left re-offer themselves on the control-plane engine
// after the class backoff (bounded, per overload.ClassConfig.MaxRetries);
// completions feed back through the job state machine's done path, closing
// the inflight window. Brownout degradation stays machine-level (each
// machine's traffic driver samples its own shards); the cluster plane does
// admission and shedding only.
package cluster

import (
	"time"

	"enoki/internal/ktime"
	"enoki/internal/overload"
)

// Overload returns the cluster's admission controller, nil when
// Config.Admission is empty. Read its counters between runs; its
// conservation check is the fleet-level shed-accounting oracle.
func (c *Cluster) Overload() *overload.Controller { return c.adm }

// Backlog returns how many admitted jobs are not yet Done — the
// control-plane queue depth admission hysteresis samples.
func (c *Cluster) Backlog() int { return c.sched.live }

// PostAt schedules fn on the control-plane engine at absolute virtual time
// at (which must not be in the past). Traffic drivers use it for their
// arrival tick chains; fn runs as a control-plane event and may Offer or
// Submit.
func (c *Cluster) PostAt(at time.Duration, fn func()) {
	if c.closed {
		panic("cluster: PostAt on a closed cluster")
	}
	c.ctrl.PostAt(ktime.Time(0).Add(ktime.Duration(at)), fn)
}

// Offer runs one job through admission class class: Admitted submits the
// job, Retry re-offers it after the class backoff (self-driving, up to
// MaxRetries), Dropped sheds it for good. The returned verdict is the
// first attempt's; a retried offer's eventual fate shows up only in the
// controller's counters. Requires Config.Admission.
func (c *Cluster) Offer(class int, spec JobSpec) overload.Verdict {
	if c.adm == nil {
		panic("cluster: Offer without Config.Admission")
	}
	return c.offer(class, spec, 0)
}

func (c *Cluster) offer(class int, spec JobSpec, attempt int) overload.Verdict {
	v := c.adm.Admit(class, attempt)
	switch v {
	case overload.Admitted:
		id := c.Submit(spec)
		c.sched.jobs.at(id).class = int32(class) + 1
	case overload.Retry:
		c.ctrl.Post(ktime.Duration(c.adm.Backoff(class, attempt)), func() {
			c.offer(class, spec, attempt+1)
		})
	}
	return v
}

// jobDone closes the admission window of a completed job (no-op for jobs
// submitted directly, which never entered admission).
func (c *Cluster) jobDone(id int) {
	if c.adm == nil {
		return
	}
	if class := c.sched.jobs.at(id).class; class > 0 {
		c.adm.Done(int(class) - 1)
	}
}
