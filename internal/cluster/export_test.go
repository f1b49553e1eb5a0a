package cluster

// Lockstep makes c's control plane promise no silence, so its fleet visits
// every machine every epoch: the control arm of TestFleetQuietMatchesLockstep.
func (c *Cluster) Lockstep() { c.chatty = true }
