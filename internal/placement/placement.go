// Package placement owns the sector→server mapping of an HPBD device.
//
// The map is the Directory: a versioned, epoch-stamped table of sector
// ranges to servers. A static fleet is the directory at epoch 0 — each
// founding server bootstraps the next contiguous slice of the device,
// the paper's blocked distribution (§4.2.5), or the founding table is
// re-laid round-robin for the striped ablation — and Split is the one
// function that turns a device byte range into per-server segments.
//
// Membership is dynamic on top of the same table. Servers can be added,
// drained and removed at runtime; the directory plans rebalancing moves
// (capacity-proportional targets, minimal movement, deterministic order)
// and the device's migration engine executes them, committing each move
// with an epoch bump.
package placement

import (
	"hpbd/internal/blockdev"
)

// SectorSize aliases the block layer's addressing unit.
const SectorSize = blockdev.SectorSize

// Segment is one piece of a split request: Length bytes of the parent
// request at byte Off map to the owning server's area at byte Offset.
type Segment struct {
	Server  int   // index into the device's server list
	Offset  int64 // byte offset within the server area
	Off     int   // byte offset within the parent request
	Length  int
	DevByte int64 // absolute device byte offset of this piece
}
