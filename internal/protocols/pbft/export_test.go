package pbft

// Window and MaxBatch expose the sliding-window constants to the
// external test package.
const (
	Window   = window
	MaxBatch = maxBatch
)
