// Package ramdisk provides the memory server's page store: a RAM-backed
// byte store with a file-style interface, as the paper's server uses a
// RamDisk exposed through the filesystem. Accesses charge the calibrated
// memcpy cost, which is the server-side copy the paper overlaps with RDMA.
package ramdisk

import (
	"errors"

	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
)

// ErrOutOfRange reports access beyond the store's end.
var ErrOutOfRange = errors.New("ramdisk: access out of range")

// RamDisk is a fixed-size in-memory store.
type RamDisk struct {
	mem netmodel.MemModel
	buf []byte
	op  sim.Duration
}

// New creates a RamDisk of size bytes.
func New(size int64, mem netmodel.MemModel) *RamDisk {
	return &RamDisk{mem: mem, buf: make([]byte, size)}
}

// SetOpOverhead adds a fixed per-operation cost. The paper's server
// reaches its RamDisk through a file-system interface, so every request
// pays a VFS traversal on top of the copy.
func (r *RamDisk) SetOpOverhead(d sim.Duration) { r.op = d }

// Size returns the store capacity in bytes.
func (r *RamDisk) Size() int64 { return int64(len(r.buf)) }

// ReadAt copies len(dst) bytes from offset off into dst, charging the
// calling process the memcpy cost.
func (r *RamDisk) ReadAt(p *sim.Proc, dst []byte, off int64) error {
	if off < 0 || off+int64(len(dst)) > int64(len(r.buf)) {
		return ErrOutOfRange
	}
	p.Sleep(r.op + r.mem.Memcpy(len(dst)))
	copy(dst, r.buf[off:])
	return nil
}

// WriteAt copies src into the store at off, charging the memcpy cost.
func (r *RamDisk) WriteAt(p *sim.Proc, src []byte, off int64) error {
	if off < 0 || off+int64(len(src)) > int64(len(r.buf)) {
		return ErrOutOfRange
	}
	p.Sleep(r.op + r.mem.Memcpy(len(src)))
	copy(r.buf[off:], src)
	return nil
}

// Peek returns a copy of stored bytes without charging time (tests only).
func (r *RamDisk) Peek(off int64, n int) []byte {
	out := make([]byte, n)
	copy(out, r.buf[off:])
	return out
}
