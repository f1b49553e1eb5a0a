package overload

import (
	"testing"
	"time"
)

// Transitions returns every brownout transition in sample order.
func (c *Controller) Transitions() []Transition { return c.transitions }

func twoClass(leak bool) *Controller {
	return New(Config{
		LeakShed: leak,
		Classes: []ClassConfig{
			{Name: "api", Policy: 1, MaxInflight: 2, MaxRetries: 2, Backoff: 100 * time.Microsecond, EnterDepth: 8, ExitDepth: 2},
			{Name: "batch", Policy: 0},
		},
	})
}

func TestAdmitShedDropAccounting(t *testing.T) {
	c := twoClass(false)

	// Fill the inflight ceiling.
	for i := 0; i < 2; i++ {
		if v := c.Admit(0, 0); v != Admitted {
			t.Fatalf("admit %d: got %v", i, v)
		}
	}
	// Next offers shed: first two attempts retry, the third drops.
	if v := c.Admit(0, 0); v != Retry {
		t.Fatalf("attempt 0 over ceiling: got %v, want Retry", v)
	}
	if v := c.Admit(0, 1); v != Retry {
		t.Fatalf("attempt 1 over ceiling: got %v, want Retry", v)
	}
	if v := c.Admit(0, 2); v != Dropped {
		t.Fatalf("attempt 2 over ceiling: got %v, want Dropped", v)
	}
	n := c.Counters(0)
	want := Counters{Offered: 5, Admitted: 2, Shed: 3, Retried: 2, Dropped: 1}
	if n != want {
		t.Fatalf("counters %+v, want %+v", n, want)
	}
	if vs := c.CheckConservation(false); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	// Inflight must balance before the finalInflight check passes.
	if vs := c.CheckConservation(true); len(vs) != 1 {
		t.Fatalf("want 1 inflight violation, got %v", vs)
	}
	c.Done(0)
	c.Done(0)
	if vs := c.CheckConservation(true); len(vs) != 0 {
		t.Fatalf("drained controller still violating: %v", vs)
	}

	// Unlimited class never sheds.
	for i := 0; i < 100; i++ {
		if v := c.Admit(1, 0); v != Admitted {
			t.Fatalf("unlimited class shed at %d: %v", i, v)
		}
	}
}

func TestLeakShedBreaksConservation(t *testing.T) {
	c := twoClass(true)
	for i := 0; i < 2; i++ {
		c.Admit(0, 0)
	}
	if v := c.Admit(0, 99); v != Dropped {
		t.Fatalf("want Dropped, got %v", v)
	}
	vs := c.CheckConservation(false)
	if len(vs) != 1 {
		t.Fatalf("seeded LeakShed bug not caught: violations %v", vs)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	c := twoClass(false)
	base := 100 * time.Microsecond
	if d := c.Backoff(0, 0); d != base {
		t.Fatalf("attempt 0 backoff %v, want %v", d, base)
	}
	if d := c.Backoff(0, 3); d != base<<3 {
		t.Fatalf("attempt 3 backoff %v, want %v", d, base<<3)
	}
	if d := c.Backoff(0, 40); d != base<<6 {
		t.Fatalf("attempt 40 backoff %v, want cap %v", d, base<<6)
	}
	// Zero base must not loop or grow.
	z := New(Config{Classes: []ClassConfig{{Name: "z"}}})
	if d := z.Backoff(0, 10); d != 0 {
		t.Fatalf("zero-base backoff %v, want 0", d)
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	c := twoClass(false)

	// Below EnterDepth: no transition.
	if c.Sample(0, 7, 10) {
		t.Fatal("sample below EnterDepth flipped state")
	}
	// At EnterDepth: enter.
	if !c.Sample(0, 8, 20) || !c.Degraded(0) {
		t.Fatal("sample at EnterDepth did not enter brownout")
	}
	// Between thresholds: hold (hysteresis).
	if c.Sample(0, 5, 30) || !c.Degraded(0) {
		t.Fatal("mid-band sample should hold the degraded state")
	}
	// At ExitDepth: exit.
	if !c.Sample(0, 2, 40) || c.Degraded(0) {
		t.Fatal("sample at ExitDepth did not exit brownout")
	}
	// Disabled class (EnterDepth 0) never transitions.
	if c.Sample(1, 1000, 50) {
		t.Fatal("brownout-disabled class transitioned")
	}

	wantTr := []Transition{{Class: 0, At: 20, Enter: true}, {Class: 0, At: 40, Enter: false}}
	tr := c.Transitions()
	if len(tr) != len(wantTr) || tr[0] != wantTr[0] || tr[1] != wantTr[1] {
		t.Fatalf("transitions %+v, want %+v", tr, wantTr)
	}
	if rec, ok := c.Recovery(0); !ok || rec != 20 {
		t.Fatalf("recovery = %v, %v; want 20ns, true", rec, ok)
	}
	n := c.Counters(0)
	if n.BrownoutEnters != 1 || n.BrownoutExits != 1 {
		t.Fatalf("brownout counters %+v", n)
	}
}

func TestRecoveryIncompleteEpisode(t *testing.T) {
	c := twoClass(false)
	c.Sample(0, 100, 5)
	if _, ok := c.Recovery(0); ok {
		t.Fatal("open brownout episode reported a recovery time")
	}
}

func TestHysteresisConfigValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExitDepth > EnterDepth must panic")
		}
	}()
	New(Config{Classes: []ClassConfig{{Name: "bad", EnterDepth: 2, ExitDepth: 5}}})
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Offered: 1, Admitted: 1, BrownoutEnters: 2}
	b := Counters{Offered: 2, Shed: 2, Retried: 1, Dropped: 1, BrownoutExits: 1}
	got := a.Add(b)
	want := Counters{Offered: 3, Admitted: 1, Shed: 2, Retried: 1, Dropped: 1, BrownoutEnters: 2, BrownoutExits: 1}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

func TestVerdictString(t *testing.T) {
	if Admitted.String() != "admitted" || Retry.String() != "retry" || Dropped.String() != "dropped" {
		t.Fatal("verdict strings drifted")
	}
	if Verdict(9).String() != "Verdict(9)" {
		t.Fatal("unknown verdict string")
	}
}

// TestAdmitZeroAlloc is the hot-path allocation ratchet the CI overload
// job runs: the admission check must never allocate, shed or not.
func TestAdmitZeroAlloc(t *testing.T) {
	c := New(Config{Classes: []ClassConfig{
		{Name: "hot", MaxInflight: 1, MaxRetries: 1, Backoff: time.Microsecond},
	}})
	if n := testing.AllocsPerRun(1000, func() {
		if c.Admit(0, 0) == Admitted { // admit path
			c.Done(0)
		}
		c.Admit(0, 0) // fill the slot
		c.Admit(0, 0) // shed→retry path
		c.Admit(0, 9) // shed→drop path
		c.Done(0)
		c.Backoff(0, 3)
	}); n != 0 {
		t.Fatalf("Admit hot path allocates %.1f allocs/op, want 0", n)
	}
}
