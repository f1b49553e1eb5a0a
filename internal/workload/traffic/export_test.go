package traffic

import "enoki/internal/kernel"

// SpawnPlain routes d's request tasks through Kernel.Spawn, whose records
// are never reused and never feed the kernel's free list: the control arm of
// TestTrafficRecyclingIdentity.
func (d *Driver) SpawnPlain() {
	d.spawnTask = func(k *kernel.Kernel, name string, classID int, b kernel.Behavior) {
		k.Spawn(name, classID, b)
	}
}
