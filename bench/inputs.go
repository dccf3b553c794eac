package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"hpbd/internal/blockdev"
	"hpbd/internal/traceio"
)

// The block workloads' inputs are request streams in the repository's own
// trace format: a traceio.Op with Sync set is waited for before the next
// op is issued (swap-ins, and every op of the queue-depth-1 stream); an op
// without it is write-back, kept in flight up to asyncWindow deep. The
// programs under test only ever see the ops.

const (
	pageBytes   = 4096
	readBytes   = 32 << 10  // swap-in request: 8 pages of read-ahead
	writeBytes  = 128 << 10 // swap-out request: the block layer's maximum
	asyncWindow = 8

	// Measured on the fig7 HPBD row at 1/32 (ISSUE 11): 2 788 swap-in
	// requests of 32 K per 836 write-back requests of 128 K. The traffic
	// test re-measures the ratio from a live capture.
	mixReads  = 2788
	mixWrites = 836
)

// stream is one generated input: warm leading ops that run before the
// timed section, then the measured ops, over a pre-filled area.
type stream struct {
	area int64 // bytes
	warm int
	ops  []traceio.Op
}

func (s *stream) timed() []traceio.Op { return s.ops[s.warm:] }

// genRand4K alternates 4 K writes and reads at random page offsets, each
// waited for: one request in flight, so host cost per request is all
// message-rate overhead and the virtual latency is the unloaded round trip.
func genRand4K(seed, area int64, n, warm int) *stream {
	rnd := rand.New(rand.NewSource(seed))
	pages := area / pageBytes
	s := &stream{area: area, warm: warm, ops: make([]traceio.Op, 0, n+warm)}
	for i := 0; i < n+warm; i++ {
		s.ops = append(s.ops, traceio.Op{
			Write:  i%2 == 0,
			Sector: rnd.Int63n(pages) * (pageBytes / blockdev.SectorSize),
			Bytes:  pageBytes,
			Sync:   true,
		})
	}
	return s
}

// genSwapmix is the quicksort swap stream as a synthetic mix: 128 K
// write-back at a wrapping sequential cursor, and between writes the
// measured share of 32 K swap-ins at random aligned offsets. A read never
// overlaps one of the last asyncWindow writes, which may still be in
// flight, so every read has exactly one correct answer.
func genSwapmix(seed, area int64, n, warm int) *stream {
	rnd := rand.New(rand.NewSource(seed))
	s := &stream{area: area, warm: warm, ops: make([]traceio.Op, 0, n+warm)}
	var recent [asyncWindow]int64 // byte offsets of the newest writes
	for i := range recent {
		recent[i] = -1
	}
	inFlight := func(off int64) bool {
		for _, w := range recent {
			if w >= 0 && off >= w && off < w+writeBytes {
				return true
			}
		}
		return false
	}
	var cursor int64
	due, nw := 0, 0
	for len(s.ops) < n+warm {
		s.ops = append(s.ops, traceio.Op{Write: true, Sector: cursor / blockdev.SectorSize, Bytes: writeBytes})
		recent[nw%asyncWindow] = cursor
		nw++
		cursor = (cursor + writeBytes) % area
		due += mixReads
		for ; due >= mixWrites && len(s.ops) < n+warm; due -= mixWrites {
			off := rnd.Int63n(area/readBytes) * readBytes
			for inFlight(off) {
				off = rnd.Int63n(area/readBytes) * readBytes
			}
			s.ops = append(s.ops, traceio.Op{Sector: off / blockdev.SectorSize, Bytes: readBytes, Sync: true})
		}
	}
	return s
}

// dumpInputs saves a generated stream where -dump-inputs points, in the
// format traceio.Load and traceio.Replay read back.
func dumpInputs(dir, name string, s *stream) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return err
	}
	if err := (&traceio.Trace{Ops: s.ops}).Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pages is the harness's version table: what every page of the area must
// read back as. Each 512-byte sector of a written page carries a 16-byte
// stamp of (sector, version), so a misplaced, stale, torn or missing
// sector fails verification; the bytes between stamps are not compared.
type pages struct {
	version []uint32
}

func newPages(area int64) *pages {
	return &pages{version: make([]uint32, area/pageBytes)}
}

const stampMix = 0x9e3779b97f4a7c15

// fill bumps the version of every page under [off, off+len(buf)) and
// stamps buf with the new contents.
func (pg *pages) fill(buf []byte, off int64) {
	for i := 0; i < len(buf); i += blockdev.SectorSize {
		page := (off + int64(i)) / pageBytes
		if (off+int64(i))%pageBytes == 0 {
			pg.version[page]++
		}
		sector := uint64(off+int64(i)) / blockdev.SectorSize
		binary.LittleEndian.PutUint64(buf[i:], sector)
		binary.LittleEndian.PutUint64(buf[i+8:], (sector+1)*stampMix^uint64(pg.version[page]))
	}
}

// verify checks a read-back of [off, off+len(buf)) against the table.
func (pg *pages) verify(buf []byte, off int64) error {
	for i := 0; i < len(buf); i += blockdev.SectorSize {
		sector := uint64(off+int64(i)) / blockdev.SectorSize
		v := pg.version[(off+int64(i))/pageBytes]
		if got := binary.LittleEndian.Uint64(buf[i:]); got != sector {
			return fmt.Errorf("sector %d reads back as sector %d", sector, got)
		}
		if got := binary.LittleEndian.Uint64(buf[i+8:]); got != (sector+1)*stampMix^uint64(v) {
			return fmt.Errorf("sector %d does not hold version %d", sector, v)
		}
	}
	return nil
}

// issuer is what the simulated and the real-network driver share: the
// version table, the payload buffers, and the tally of what was issued.
type issuer struct {
	pg   *pages
	wbuf [asyncWindow + 1][]byte // one more than can be in flight
	rbuf []byte
	nw   int // writes issued: picks the ring slot and the buffer

	ops, failed int
	bytes       int64
}

func newIssuer(area int64) issuer {
	d := issuer{pg: newPages(area), rbuf: make([]byte, writeBytes)}
	for i := range d.wbuf {
		d.wbuf[i] = make([]byte, writeBytes)
	}
	return d
}

// fail counts a failed op and reports the first few.
func (d *issuer) fail(format string, a ...any) {
	d.failed++
	if d.failed <= 3 {
		warnf(format, a...)
	}
}

// count tallies op and returns its byte offset.
func (d *issuer) count(op traceio.Op) int64 {
	d.ops++
	d.bytes += int64(op.Bytes)
	return op.Sector * blockdev.SectorSize
}

// nextWrite returns the ring slot the next write-back occupies (the
// caller reaps it first) and a buffer no write in flight still uses.
func (d *issuer) nextWrite(n int) (slot int, buf []byte) {
	slot, buf = d.nw%asyncWindow, d.wbuf[d.nw%len(d.wbuf)][:n]
	d.nw++
	return slot, buf
}
