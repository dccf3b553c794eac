// Package mirror provides a mirrored block device: writes are replicated
// to two child devices and reads fail over between them, so the loss of
// one remote memory server does not lose swapped pages. This implements
// the reliability direction the paper defers to related work (Felten &
// Zahorjan's remote paging reliability study and the Network RamDisk's
// mirroring), as a layered driver over any two blockdev.Drivers — two
// HPBD devices on different servers in the intended deployment.
package mirror

import (
	"errors"
	"fmt"

	"hpbd/internal/blockdev"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// Errors.
var (
	ErrSizeMismatch = errors.New("mirror: child devices differ in size")
	ErrBothFailed   = errors.New("mirror: both replicas failed")
)

// Stats counts mirror activity.
type Stats struct {
	Writes         int64
	Reads          int64
	ReadFailovers  int64
	DegradedWrites int64
}

// Device is a RAID-1 style mirror over two block drivers.
type Device struct {
	env       *sim.Env
	name      string
	primary   blockdev.Driver
	secondary blockdev.Driver

	primaryDown   bool
	secondaryDown bool
	stats         Stats

	// Optional telemetry, wired by SetTelemetry. All handles are nil-safe
	// so the default (untelemetered) mirror emits nothing.
	mWrites    *telemetry.Counter
	mReads     *telemetry.Counter
	mFailovers *telemetry.Counter
	mDegraded  *telemetry.Counter
	tracer     *telemetry.Tracer
}

// New builds a mirror over two equally sized children.
func New(env *sim.Env, name string, primary, secondary blockdev.Driver) (*Device, error) {
	if primary.Sectors() != secondary.Sectors() {
		return nil, fmt.Errorf("%w: %d vs %d sectors", ErrSizeMismatch, primary.Sectors(), secondary.Sectors())
	}
	return &Device{env: env, name: name, primary: primary, secondary: secondary}, nil
}

// SetTelemetry registers the mirror's counters with reg and routes
// replica-loss events to its tracer. Only fault-aware configurations
// call this, so default summaries are unchanged. A nil registry is a
// no-op.
func (m *Device) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.mWrites = reg.Counter("mirror.writes")
	m.mReads = reg.Counter("mirror.reads")
	m.mFailovers = reg.Counter("mirror.read_failovers")
	m.mDegraded = reg.Counter("mirror.degraded_writes")
	m.tracer = reg.Tracer()
}

// Name implements blockdev.Driver.
func (m *Device) Name() string { return m.name }

// Sectors implements blockdev.Driver.
func (m *Device) Sectors() int64 { return m.primary.Sectors() }

// Stats returns a copy of the mirror statistics.
func (m *Device) Stats() Stats { return m.stats }

// Degraded reports whether a replica has been lost.
func (m *Device) Degraded() bool { return m.primaryDown || m.secondaryDown }

// Submit implements blockdev.Driver.
func (m *Device) Submit(p *sim.Proc, r *blockdev.Request) {
	if r.Write {
		m.submitWrite(p, r)
	} else {
		m.submitRead(p, r)
	}
}

// submitWrite replicates to both children concurrently; the write
// succeeds if at least one replica holds the data (the mirror then runs
// degraded), and fails only when both are gone.
func (m *Device) submitWrite(p *sim.Proc, r *blockdev.Request) {
	m.stats.Writes++
	m.mWrites.Inc()
	var reqs [2]*blockdev.Request
	var down [2]*bool
	children := [2]blockdev.Driver{m.primary, m.secondary}
	down[0], down[1] = &m.primaryDown, &m.secondaryDown

	issued := 0
	for i, child := range children {
		if *down[i] {
			continue
		}
		// Each replica owns a fresh copy until its child completes it.
		req := blockdev.NewRequest(m.env, true, r.Sector, r.Data())
		reqs[i] = req
		issued++
		if i == 0 {
			continue // primary is submitted on this process below
		}
		child := child
		m.env.Go(m.name+"-mirror-w", func(wp *sim.Proc) {
			child.Submit(wp, req)
		})
	}
	if issued == 0 {
		r.Complete(ErrBothFailed)
		return
	}
	if reqs[0] != nil {
		m.primary.Submit(p, reqs[0])
	}
	okCount := 0
	for i, req := range reqs {
		if req == nil {
			continue
		}
		if err := req.Wait(p); err != nil {
			if !*down[i] {
				*down[i] = true
				m.markReplicaDown(i, "write")
			}
		} else {
			okCount++
		}
	}
	if okCount == 0 {
		r.Complete(ErrBothFailed)
		return
	}
	if m.Degraded() {
		m.stats.DegradedWrites++
		m.mDegraded.Inc()
	}
	r.Complete(nil)
}

// markReplicaDown emits the replica-loss trace instant; side is 0 for
// the primary and 1 for the secondary.
func (m *Device) markReplicaDown(side int, op string) {
	if m.tracer == nil {
		return
	}
	which := "primary"
	if side == 1 {
		which = "secondary"
	}
	m.tracer.InstantArgs(m.name, "replica-down", map[string]any{"replica": which, "op": op})
}

// submitRead serves from the primary and fails over to the secondary.
func (m *Device) submitRead(p *sim.Proc, r *blockdev.Request) {
	m.stats.Reads++
	m.mReads.Inc()
	order := []struct {
		drv  blockdev.Driver
		down *bool
	}{
		{m.primary, &m.primaryDown},
		{m.secondary, &m.secondaryDown},
	}
	for i, c := range order {
		if *c.down {
			continue
		}
		buf := make([]byte, r.Bytes())
		req := blockdev.NewRequest(m.env, false, r.Sector, buf)
		c.drv.Submit(p, req)
		if err := req.Wait(p); err != nil {
			if !*c.down {
				*c.down = true
				m.markReplicaDown(i, "read")
			}
			if i == 0 {
				m.stats.ReadFailovers++
				m.mFailovers.Inc()
			}
			continue
		}
		r.Scatter(buf)
		r.Complete(nil)
		return
	}
	r.Complete(ErrBothFailed)
}
