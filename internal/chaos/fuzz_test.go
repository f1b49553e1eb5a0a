package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// Parse is the one place the chaos package consumes untrusted input: a spec
// string pasted from a CI log, a bug report, or a shell history. The fuzz
// target holds every family's parser to the same properties for arbitrary
// input: parsing never panics and rejects only with a *SpecError, an
// accepted mask stays within the generated events, every generated event is
// well-formed for its family, and any spec that parses round-trips —
// rendering the schedule and re-parsing it reproduces the identical fault
// plan, so a one-line reproducer can never silently drift.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"v1:fifo:ba29107d460d80ee:1", "v1:cfs:abc:3", "v1:arbiter:ffffffffffffffff:1f",
		"v1:wfq:1:xyz", "v1:wfq:1:1:1", "v2:wfq:1:1", "v1",
		fleetSpec, "f1:fifo:1:1", "f1:cfs:abc:3", "f1:wfq:ffffffffffffffff:7", "v1:wfq:5eed:3",
		"f1:wfq:5eed:ffff", "f1:wfq::3", "f1:wfq:5eed:0x3", "f1:wfq:5eed:3 ",
		rolloutSpec, "r1:fifo:dead:1", "r1:shinjuku:5eed7:3", "r1:wfq:ffffffffffffffff:7", "r1:cfs:9:7",
		"f1:wfq:9:7", "r1:wfq:9:ffff", "r1:wfq:9", "r1::9:7", "r1:wfq:+9:7", "r1:wfq:9:7:", "r1:wfq:9:7\n",
		trafficSpec, "t1:fifo:1:1", "t1:cfs:abc:3", "t1:shinjuku:5eed7:7", "t1:wfq:ffffffffffffffff:f",
		"v1:shinjuku:2a:3", "t1:shinjuku:2a:ffff", "t1::2a:3", "t1:shinjuku:+2a:3", "t1:shinjuku:2a:3:",
		"t1:shinjuku:2a:3\n", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fuzzParse(t, Single, spec, wellFormedV1)
		fuzzParse(t, Fleet, spec, wellFormedF1)
		fuzzParse(t, Rollout, spec, wellFormedR1)
		fuzzParse(t, Traffic, spec, wellFormedT1)
	})
}

func fuzzParse[E, C any, R Outcome](t *testing.T, f *Family[E, C, R], spec string, wellFormed func([]E) error) {
	s, err := f.Parse(spec)
	if err != nil {
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("%s: spec %q: rejection %v is not a *SpecError", f.Prefix, spec, err)
		}
		return
	}
	if s.Mask&^(1<<uint(len(s.Events))-1) != 0 {
		t.Fatalf("spec %q: mask %x exceeds %d events", spec, s.Mask, len(s.Events))
	}
	if err := wellFormed(s.Events); err != nil {
		t.Fatalf("spec %q: %v", spec, err)
	}
	again, err := f.Parse(s.Spec())
	if err != nil {
		t.Fatalf("round-trip of %q failed: rendered %q does not parse: %v", spec, s.Spec(), err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("round-trip of %q diverged:\nfirst  %+v\nsecond %+v", spec, s, again)
	}
}

func wellFormedV1(evs []Event) error {
	if n := len(evs); n < 2 || n > 5 {
		return fmt.Errorf("%d events, want 2..5", n)
	}
	for _, ev := range evs {
		switch ev.Plane {
		case PlanePanic, PlaneForge:
			if ev.Count < 0 {
				return fmt.Errorf("malformed %+v", ev)
			}
		case PlaneStall, PlaneHintStorm, PlaneUpgrade, PlaneUpgradeKill:
			if ev.At <= 0 {
				return fmt.Errorf("malformed %+v", ev)
			}
		case PlaneIPIDrop, PlaneIPIDelay, PlaneIPIDup, PlaneTimerSkew:
			if ev.At <= 0 || ev.Dur <= 0 || ev.Mag < 0 {
				return fmt.Errorf("malformed window %+v", ev)
			}
		default:
			return fmt.Errorf("plane %v cannot appear in a single-machine schedule", ev.Plane)
		}
	}
	return nil
}

func wellFormedF1(evs []FleetEvent) error {
	seen := map[int]bool{}
	for _, ev := range evs {
		if ev.Plane != PlaneMachineKill || ev.Machine < 0 || ev.Machine >= fleetMachines || ev.At <= 0 {
			return fmt.Errorf("malformed kill %+v", ev)
		}
		if seen[ev.Machine] {
			return fmt.Errorf("machine %d killed twice", ev.Machine)
		}
		seen[ev.Machine] = true
	}
	return nil
}

func wellFormedR1(evs []FleetEvent) error {
	for _, ev := range evs {
		switch ev.Plane {
		case PlaneRolloutKill:
			if ev.Machine < 0 || ev.Machine >= fleetMachines || ev.At <= 0 {
				return fmt.Errorf("malformed kill %+v", ev)
			}
		case PlaneRolloutFaulty:
			if ev.Threshold <= 0 || ev.Threshold >= fleetMachines {
				return fmt.Errorf("malformed faulty threshold %+v", ev)
			}
		case PlaneRolloutDelayDetect:
			if ev.Delay <= 0 || time.Duration(ev.Delay) > 10*time.Millisecond {
				return fmt.Errorf("malformed detect delay %+v", ev)
			}
		default:
			return fmt.Errorf("non-rollout plane %v in schedule", ev.Plane)
		}
	}
	return nil
}

func wellFormedT1(evs []Event) error {
	for i, ev := range evs {
		switch ev.Plane {
		case PlaneTrafficFlash, PlaneTrafficAntag, PlaneTrafficChurn:
			if ev.At <= 0 || ev.Dur <= 0 || ev.Count < 1 {
				return fmt.Errorf("malformed shape %+v", ev)
			}
		case PlanePanic, PlaneStall, PlaneIPIDrop, PlaneIPIDelay, PlaneTimerSkew:
			if i == 0 {
				return fmt.Errorf("first event %v is not a traffic shape", ev.Plane)
			}
		default:
			return fmt.Errorf("plane %v cannot appear in a traffic schedule", ev.Plane)
		}
	}
	return nil
}
