// Package cpu models one out-of-order SRISC core in the SimpleScalar/SMTSim
// style used by the paper: a unified register-update-unit (RUU) acting as
// reorder buffer and issue window, in-order fetch with a bimodal branch
// predictor, out-of-order issue to typed function units, loads and stores
// ordered through the window plus a post-commit store buffer, and in-order
// commit.
//
// The core interacts with the memory system (package mem) only through its
// two L1 caches and through ICBI/DCBI invalidation tokens, so a fill that
// the barrier filter starves stalls the core exactly the way the paper
// describes: the I-fetch or load sits on an MSHR that never completes until
// the filter opens the barrier.
package cpu

import (
	"fmt"

	"repro/internal/mem"
)

// MaxRUUSize is the largest instruction window the core models: the window
// state masks hold one bit per entry in a uint64. Table 2's RUU is exactly
// this size.
const MaxRUUSize = 64

// Config holds the pipeline parameters. DefaultConfig matches Table 2 of
// the paper.
type Config struct {
	FetchWidth  int
	DecodeWidth int // dispatch (decode/rename) width
	IssueWidth  int
	CommitWidth int

	RUUSize int // instruction window / ROB entries
	LSQSize int // in-window memory operations
	SBSize  int // post-commit store buffer entries

	IntALUs   int
	IntMulDiv int
	FPUnits   int

	IntMulLat int
	IntDivLat int
	FPAddLat  int
	FPMulLat  int
	FPDivLat  int

	BimodalEntries  int
	BTBEntries      int
	RedirectPenalty int // extra cycles to refill fetch after a mispredict

	HWBarrierWireLat int // one-way latency to the dedicated barrier network
}

// DefaultConfig returns the Table 2 core: fetch 4, decode 4, issue 3,
// commit 4, RUU 64.
func DefaultConfig() Config {
	return Config{
		FetchWidth:       4,
		DecodeWidth:      4,
		IssueWidth:       3,
		CommitWidth:      4,
		RUUSize:          64,
		LSQSize:          32,
		SBSize:           8,
		IntALUs:          3,
		IntMulDiv:        1,
		FPUnits:          2,
		IntMulLat:        3,
		IntDivLat:        16,
		FPAddLat:         4, // Alpha 21264 FP add/sub latency
		FPMulLat:         4,
		FPDivLat:         12,
		BimodalEntries:   2048,
		BTBEntries:       512,
		RedirectPenalty:  2,
		HWBarrierWireLat: 2,
	}
}

// Validate checks the pipeline parameters, returning an error wrapping
// mem.ErrConfig describing the first problem. A zero width or unit count
// would never dispatch or issue, and only end in a cycle-limit error.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"fetch width", c.FetchWidth},
		{"decode width", c.DecodeWidth},
		{"issue width", c.IssueWidth},
		{"commit width", c.CommitWidth},
		{"integer ALU count", c.IntALUs},
		{"integer mul/div unit count", c.IntMulDiv},
		{"FP unit count", c.FPUnits},
	} {
		if f.v <= 0 {
			return fmt.Errorf("cpu: %s %d is not positive: %w", f.name, f.v, mem.ErrConfig)
		}
	}
	if c.RUUSize < 1 || c.RUUSize > MaxRUUSize {
		return fmt.Errorf("cpu: RUU size %d outside 1..%d: %w", c.RUUSize, MaxRUUSize, mem.ErrConfig)
	}
	if c.LSQSize < 1 || c.LSQSize > c.RUUSize {
		return fmt.Errorf("cpu: LSQ size %d outside 1..%d (the RUU size): %w", c.LSQSize, c.RUUSize, mem.ErrConfig)
	}
	if c.SBSize < 1 {
		return fmt.Errorf("cpu: store buffer size %d is not positive: %w", c.SBSize, mem.ErrConfig)
	}
	return nil
}
