// Package traceio captures the swap I/O request stream a workload
// generates and replays it against any block device. Captured traces
// decouple device evaluation from workload execution: one quicksort run
// yields a trace that can benchmark HPBD, NBD, and the disk with exactly
// the same request sequence (the methodology behind trace-driven studies
// like the paper's reference [4]).
package traceio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
)

// Op is one request in a trace.
type Op struct {
	// At is the submission time relative to trace start.
	At sim.Duration `json:"at"`
	// Write distinguishes swap-out from swap-in.
	Write bool `json:"write"`
	// Sector is the device address.
	Sector int64 `json:"sector"`
	// Bytes is the request size.
	Bytes int `json:"bytes"`
	// Sync marks requests the workload waited on (swap-ins); replay
	// blocks on them to preserve the dependency structure.
	Sync bool `json:"sync"`
}

// Trace is a captured request stream.
type Trace struct {
	Ops []Op `json:"ops"`
}

// FromLog converts a blockdev request log (captured with
// Queue.EnableLog) into a trace, keeping the real device addresses.
// Reads are marked synchronous (the faulting process waited); writes are
// asynchronous (write-back).
func FromLog(log []blockdev.RequestStat) *Trace {
	tr := &Trace{}
	if len(log) == 0 {
		return tr
	}
	t0 := log[0].At
	for _, r := range log {
		tr.Ops = append(tr.Ops, Op{
			At:     r.At.Sub(t0),
			Write:  r.Write,
			Sector: r.Sector,
			Bytes:  r.Bytes,
			Sync:   !r.Write,
		})
	}
	return tr
}

// Duration returns the trace's submission span.
func (t *Trace) Duration() sim.Duration {
	if len(t.Ops) == 0 {
		return 0
	}
	return t.Ops[len(t.Ops)-1].At
}

// Bytes returns total traffic in the trace.
func (t *Trace) Bytes() (reads, writes int64) {
	for _, op := range t.Ops {
		if op.Write {
			writes += int64(op.Bytes)
		} else {
			reads += int64(op.Bytes)
		}
	}
	return
}

// Save writes the trace as JSON.
func (t *Trace) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// Load reads a JSON trace.
func Load(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, err
	}
	for i, op := range t.Ops {
		if op.Bytes <= 0 || op.Bytes%blockdev.SectorSize != 0 || op.Sector < 0 || op.At < 0 {
			return nil, fmt.Errorf("traceio: invalid op %d: %+v", i, op)
		}
	}
	return &t, nil
}

// ErrTraceTooLarge reports a trace addressing beyond the replay device.
var ErrTraceTooLarge = errors.New("traceio: trace addresses beyond device end")

// ReplayStats summarizes a replay.
type ReplayStats struct {
	Ops      int
	Elapsed  sim.Duration
	SyncWait sim.Duration // time spent blocked on synchronous requests
}

// Replay drives the trace against q with original submission pacing:
// each op is submitted no earlier than its recorded offset from trace
// start, synchronous ops block until complete (as the faulting process
// did), and asynchronous ops are waited for at the end.
func Replay(p *sim.Proc, q *blockdev.Queue, t *Trace) (ReplayStats, error) {
	var st ReplayStats
	devSectors := q.Driver().Sectors()
	for _, op := range t.Ops {
		if op.Sector+int64(op.Bytes/blockdev.SectorSize) > devSectors {
			return st, ErrTraceTooLarge
		}
	}
	start := p.Now()
	var async []*blockdev.IO
	for _, op := range t.Ops {
		if wait := op.At - p.Now().Sub(start); wait > 0 {
			p.Sleep(wait)
		}
		io, err := q.Submit(op.Write, op.Sector, make([]byte, op.Bytes))
		if err != nil {
			return st, err
		}
		q.Unplug()
		st.Ops++
		if op.Sync {
			w0 := p.Now()
			if err := io.Wait(p); err != nil {
				return st, err
			}
			st.SyncWait += p.Now().Sub(w0)
		} else {
			async = append(async, io)
		}
	}
	for _, io := range async {
		if err := io.Wait(p); err != nil {
			return st, err
		}
	}
	st.Elapsed = p.Now().Sub(start)
	return st, nil
}
