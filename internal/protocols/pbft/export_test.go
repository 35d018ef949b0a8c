package pbft

// Window and MaxBatch expose the sliding-window constants to the
// external test package.
const (
	Window   = window
	MaxBatch = maxBatch
)

// RetainedSlots reports how many per-slot instances and commit
// certificates the replica holds, and LastExecuted - LowWater, the most
// the stable checkpoint leaves a reason to keep.
func (p *PBFT) RetainedSlots() (insts, certs, allowed int) {
	led := p.env.Ledger()
	return len(p.insts), len(p.commitCerts), int(led.LastExecuted() - led.LowWater())
}
