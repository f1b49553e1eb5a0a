package cluster

import (
	"testing"

	"enoki/internal/kernel"
	"enoki/internal/ktime"
)

// TestLoadIndexMatchesLeastLoaded is the placement index's differential
// test: random assignments, unassignments and machine deaths, through the
// control plane's own assign, unassign and machineDead, over fleets mixing
// Machine8 and Machine80 views — small counts, so equal jobs-per-CPU ratios
// (0/8 against 0/80, 1/8 against 10/80) tie all the time. After every step
// the index must pick what LeastLoaded.Pick's scan picks, and anyAlive must
// agree with the views.
func TestLoadIndexMatchesLeastLoaded(t *testing.T) {
	cpus := [2]int{kernel.Machine8().NumCPUs, kernel.Machine80().NumCPUs}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := ktime.NewRand(seed)
		machines := 1 + rng.Intn(23)
		s := &jobScheduler{c: &Cluster{closed: true}} // closed: machineDead arms no tick
		for i := 0; i < machines; i++ {
			s.view = append(s.view, MachineView{ID: i, Alive: true, CPUs: cpus[rng.Intn(2)]})
		}
		s.assigned = make([][]int, machines)
		s.load = newLoadIndex(s.view)
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 5: // a new job on the least-loaded machine, or anywhere alive
				mi := s.load.least()
				if mi < 0 {
					break
				}
				if r == 0 {
					if m := rng.Intn(machines); s.view[m].Alive {
						mi = m
					}
				}
				id := s.jobs.n
				s.jobs.add().Job = Job{ID: id, State: JobRunning, Machine: mi}
				s.assign(id, mi)
			case r < 9: // a placed job finishes
				mi := rng.Intn(machines)
				if list := s.assigned[mi]; len(list) > 0 {
					s.unassign(list[rng.Intn(len(list))], mi)
				}
			default:
				if rng.Intn(4) == 0 {
					s.machineDead(rng.Intn(machines))
				}
			}
			alive := false
			for i := range s.view {
				alive = alive || s.view[i].Alive
			}
			if got, want := s.load.least(), (LeastLoaded{}).Pick(nil, s.view); got != want || s.anyAlive() != alive {
				t.Fatalf("seed %d step %d: index picks %d, anyAlive %v; LeastLoaded.Pick %d, alive %v; views %+v",
					seed, step, got, s.anyAlive(), want, alive, s.view)
			}
		}
	}
}
