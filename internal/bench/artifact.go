// The cluster artifact, BENCH_cluster.json: the fleet, rollout and overload
// sections' verdicts, counts and fingerprints. Every field is virtual time, a
// count or a hash, so the document is a pure function of the code — the same
// bytes on any host at any GOMAXPROCS — and a change that moves a
// fingerprint shows up as a diff of the committed file. Host time lives in
// the performance ledger (benchmark/); the single-vs-sharded sweep
// (RunCluster) is printed, never written.
package bench

import "enoki/internal/kernel"

// SLO is one pass/fail verdict of an artifact section.
type SLO struct {
	Name     string `json:"name"`
	Target   string `json:"target"`
	Measured string `json:"measured"`
	Pass     bool   `json:"pass"`
}

// Verdicts are a section's SLO verdicts; Pass holds when every one passes.
type Verdicts struct {
	SLOs []SLO `json:"slos"`
	Pass bool  `json:"pass"`
}

// check records one verdict.
func (v *Verdicts) check(name, target, measured string, pass bool) {
	v.Pass = (len(v.SLOs) == 0 || v.Pass) && pass
	v.SLOs = append(v.SLOs, SLO{Name: name, Target: target, Measured: measured, Pass: pass})
}

// Artifact is the BENCH_cluster.json document.
type Artifact struct {
	Fleet    *FleetResult         `json:"fleet"`
	Rollout  *RolloutBenchResult  `json:"rollout"`
	Overload *OverloadBenchResult `json:"overload"`
}

// RunArtifact runs every section on the per-machine template m.
func RunArtifact(m kernel.Machine) *Artifact {
	return &Artifact{Fleet: RunFleet(m), Rollout: RunRollout(m), Overload: RunOverload(m)}
}
