package core

import (
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Config carries the deployment parameters shared by all protocols.
// Protocol-specific knobs live in each protocol package's Options struct.
type Config struct {
	N int // number of replicas
	F int // tolerated Byzantine faults

	// Scheme selects the authentication mode (dimension E3 / DC11).
	Scheme crypto.Scheme

	// BatchSize is the maximum number of requests ordered per consensus
	// instance; BatchTimeout bounds how long a leader waits to fill a
	// batch before proposing a partial one. PBFT applies it to every slot
	// but the last free one of its sliding window: that slot, which is
	// the one a full window frees, carries the backlog in one batch of up
	// to max(BatchSize, 64) requests.
	BatchSize    int
	BatchTimeout time.Duration

	// CheckpointInterval is the window (in sequence numbers) between
	// checkpoints (dimension P4). Zero disables checkpointing.
	CheckpointInterval uint64

	// ViewChangeTimeout is the inactivity bound after which replicas
	// suspect the leader (timer τ2).
	ViewChangeTimeout time.Duration

	// Delta is the presumed post-GST synchrony bound used by
	// non-responsive protocols (Tendermint's wait, DC4).
	Delta time.Duration

	// RequestTimeout is the client's retransmission timeout (τ1).
	RequestTimeout time.Duration

	// HighWaterWindow bounds how far ahead of the stable checkpoint a
	// leader may assign sequence numbers (PBFT's [h, H] window).
	HighWaterWindow uint64
}

// DefaultConfig returns sensible laboratory defaults for n replicas.
func DefaultConfig(n int) Config {
	return Config{
		N:                  n,
		F:                  types.FaultThreshold(n),
		Scheme:             crypto.SchemeSig,
		BatchSize:          1,
		BatchTimeout:       2 * time.Millisecond,
		CheckpointInterval: 128,
		ViewChangeTimeout:  250 * time.Millisecond,
		Delta:              100 * time.Millisecond,
		RequestTimeout:     500 * time.Millisecond,
		HighWaterWindow:    4096,
	}
}

// Quorum returns the 2f+1 quorum size.
func (c Config) Quorum() int { return 2*c.F + 1 }

// WeakQuorum returns f+1, the smallest set guaranteed to contain an
// honest replica.
func (c Config) WeakQuorum() int { return c.F + 1 }

// AllReplicas returns the replica ID slice 0..N-1.
func (c Config) AllReplicas() []types.NodeID {
	ids := make([]types.NodeID, c.N)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	return ids
}

// LeaderOf returns the leader of a view under the round-robin convention
// every protocol in this repository uses.
func (c Config) LeaderOf(v types.View) types.NodeID {
	return types.NodeID(uint64(v) % uint64(c.N))
}
