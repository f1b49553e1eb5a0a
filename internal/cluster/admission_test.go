package cluster

import (
	"testing"
	"time"

	"enoki/internal/kernel"
	"enoki/internal/overload"
)

func admCluster(t *testing.T, machines int, classes []overload.ClassConfig) *Cluster {
	t.Helper()
	c := New(Config{Machines: machines, Machine: kernel.Machine8(), Admission: classes})
	t.Cleanup(func() { c.Close() })
	return c
}

// checkAdmissionState asserts what replaced the never-pruned job→class map:
// per-job admission state is one field of the job's own slab record, so it
// is bounded by the job count by construction, exactly the admitted jobs
// carry a class, and there is nothing that could be left to prune.
func checkAdmissionState(t *testing.T, c *Cluster) {
	t.Helper()
	records, classed := 0, 0
	for _, chunk := range c.sched.jobs.chunks {
		records += len(chunk)
		for i := range chunk {
			if chunk[i].class > 0 {
				classed++
			}
		}
	}
	if records != c.NumJobs() {
		t.Fatalf("%d per-job records for %d jobs", records, c.NumJobs())
	}
	if admitted := int(c.Overload().Total().Admitted); classed != admitted {
		t.Fatalf("%d jobs carry an admission class, %d were admitted", classed, admitted)
	}
}

func TestOfferAdmitShedRetryConservation(t *testing.T) {
	c := admCluster(t, 2, []overload.ClassConfig{
		// Backoff outlives a job (reconcile 200µs + net latency + 100µs
		// run), so retries land after the first wave frees slots.
		{Name: "api", MaxInflight: 4, MaxRetries: 1, Backoff: time.Millisecond},
	})
	spec := JobSpec{Name: "req", Cycles: 1, Run: 100 * time.Microsecond}
	admitted, shed := 0, 0
	for i := 0; i < 20; i++ {
		switch c.Offer(0, spec) {
		case overload.Admitted:
			admitted++
		case overload.Retry, overload.Dropped:
			shed++
		}
	}
	if admitted != 4 || shed != 16 {
		t.Fatalf("burst of 20 into MaxInflight 4: admitted %d shed %d", admitted, shed)
	}
	c.RunUntilIdle()
	n := c.Overload().Counters(0)
	// First-attempt sheds retry once; retries that land after completions
	// free slots get admitted, the rest drop.
	if n.Retried != 16 {
		t.Fatalf("retried %d, want 16", n.Retried)
	}
	if n.Admitted <= 4 {
		t.Fatalf("no retry was admitted after slots freed: %+v", n)
	}
	if v := c.Overload().CheckConservation(true); len(v) != 0 {
		t.Fatalf("conservation violations: %v", v)
	}
	if int(n.Admitted) != c.Stats().Done {
		t.Fatalf("admitted %d but %d jobs done", n.Admitted, c.Stats().Done)
	}
	if c.Backlog() != 0 {
		t.Fatalf("drained cluster backlog %d", c.Backlog())
	}
	checkAdmissionState(t, c)
}

func TestSubmitBypassesAdmission(t *testing.T) {
	c := admCluster(t, 1, []overload.ClassConfig{{Name: "api", MaxInflight: 1}})
	c.Submit(JobSpec{Cycles: 1})
	c.RunUntilIdle()
	if n := c.Overload().Total(); n.Offered != 0 {
		t.Fatalf("Submit touched admission: %+v", n)
	}
	if v := c.Overload().CheckConservation(true); len(v) != 0 {
		t.Fatalf("violations on untouched controller: %v", v)
	}
}

func TestOfferWithoutAdmissionPanics(t *testing.T) {
	c := New(Config{Machines: 1, Machine: kernel.Machine8()})
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Offer without Config.Admission did not panic")
		}
	}()
	c.Offer(0, JobSpec{})
}

// TestOfferConservationAcrossMachineFailure is the fleet half of the
// rehome invariant: jobs admitted before a machine dies restart elsewhere
// and still close their admission window exactly once.
func TestOfferConservationAcrossMachineFailure(t *testing.T) {
	c := admCluster(t, 3, []overload.ClassConfig{
		{Name: "api", MaxInflight: 32, MaxRetries: 2, Backoff: 200 * time.Microsecond},
	})
	spec := JobSpec{Name: "req", Cycles: 3, Run: 150 * time.Microsecond, Sleep: 100 * time.Microsecond}
	for i := 0; i < 24; i++ {
		c.Offer(0, spec)
	}
	c.FailMachine(0, 400*time.Microsecond)
	c.RunUntilIdle()
	st := c.Stats()
	if st.Lost == 0 {
		t.Fatal("machine kill lost no placements; failure path untested")
	}
	n := c.Overload().Counters(0)
	if int(n.Admitted) != st.Done {
		t.Fatalf("admitted %d, done %d: rehome leaked or double-counted", n.Admitted, st.Done)
	}
	if v := c.Overload().CheckConservation(true); len(v) != 0 {
		t.Fatalf("conservation across failure: %v", v)
	}
	checkAdmissionState(t, c)
}
