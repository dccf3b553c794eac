package cluster

// The HPBD fleet behind a node: one fabric, the memory servers on it, the
// block devices attached to them, their fallback disks, the fault injector
// and the queues — assembled here once, for every shape. A node with a VM
// swaps through one device (two over disjoint server sets when mirrored);
// a per-tenant fleet is the same assembly with one device per tenant over
// one shared server set; a data-path rig is the one-device fleet with no
// VM on top. Runtime membership (grow, drain, remove) is the controller
// face of the placement subsystem: the device's placement directory and
// live migration engine do the heavy lifting (internal/hpbd/elastic.go,
// internal/placement).
//
// Mirrored nodes stay fully replicated across membership changes: every
// operation is applied to both replica devices, and since each device
// always maps the whole sector space onto its own (disjoint) fleet, every
// sector keeps one copy per side through any sequence of grows and
// drains — re-replication falls out of the RAID-1 geometry rather than
// needing a copy protocol of its own.

import (
	"fmt"

	"hpbd/internal/blockdev"
	"hpbd/internal/disk"
	"hpbd/internal/faultsim"
	"hpbd/internal/hpbd"
	"hpbd/internal/ib"
	"hpbd/internal/mirror"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// TenantNode is one tenant's client stack on a per-tenant fleet. Each
// reports into its own registry so per-tenant latency distributions never
// mix.
type TenantNode struct {
	ID    string
	Dev   *hpbd.Device
	Queue *blockdev.Queue
	Tel   *telemetry.Registry
}

// Tenant returns tenant id's client stack (nil if unknown).
func (n *Node) Tenant(id string) *TenantNode {
	for _, t := range n.Tenants {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// buildFleet assembles the HPBD side of the node. Server names continue
// across server sets (mem0..memS-1 behind the primary, memS.. behind the
// mirror's secondary), and devices attach in order, each across its whole
// set, so the layout — like everything else in the simulation — is
// deterministic.
func (n *Node) buildFleet(cfg Config, host netmodel.HostModel) error {
	env := n.Env
	perTenant := cfg.Tenancy != nil && cfg.TenantID == ""
	if perTenant && cfg.Mirror {
		return fmt.Errorf("cluster: a per-tenant fleet cannot be mirrored")
	}
	ibcfg := ib.DefaultConfig()
	if cfg.IB != nil {
		ibcfg = *cfg.IB
	}
	if ibcfg.Telemetry == nil {
		ibcfg.Telemetry = n.Tel
	}
	n.fabric = ib.NewFabric(env, ibcfg)
	ccfg := hpbd.DefaultClientConfig()
	if cfg.Client != nil {
		ccfg = *cfg.Client
	}
	// Fault-aware configurations get request recovery by default unless
	// the caller pinned an explicit client config. The watchdog timeout
	// matters after a crash: requests already delivered to the dead server
	// hold credits and would stall the sender forever without
	// cancel-and-retry.
	if cfg.Client == nil && (cfg.Mirror || cfg.Faults != nil) {
		ccfg.MaxRetries = 2
		ccfg.RequestTimeout = 5 * sim.Millisecond
	}
	// Credit partitioning surfaces as RNR/quota pushback; the retry path
	// must be armed for a device to ride it out.
	if cfg.Tenancy != nil && ccfg.MaxRetries == 0 {
		ccfg.MaxRetries = 8
	}
	area := cfg.SwapBytes / int64(cfg.Servers)
	area -= area % blockdev.SectorSize
	if area <= 0 {
		return fmt.Errorf("cluster: swap area %d too small for %d servers", cfg.SwapBytes, cfg.Servers)
	}
	n.scfg, n.tenancy = hpbd.DefaultServerConfig, cfg.Tenancy
	if cfg.ServerCfg != nil {
		n.scfg = cfg.ServerCfg
	} else if ccfg.DoorbellBatch > 1 {
		// A doorbell-batching client implies batching servers unless an
		// explicit server config already decided.
		n.srvBatch = ccfg.DoorbellBatch
	}

	// The plan: which devices share which server set.
	type devPlan struct{ name, fallback, tenant string }
	var plan [][]devPlan
	switch {
	case perTenant:
		var devs []devPlan
		for _, t := range cfg.Tenancy.Tenants {
			devs = append(devs, devPlan{"hpbd-" + t.ID, "fb-" + t.ID, t.ID})
		}
		plan = [][]devPlan{devs}
	case cfg.Mirror:
		plan = [][]devPlan{{{"hpbd0", "hda-fb0", cfg.TenantID}}, {{"hpbd1", "hda-fb1", cfg.TenantID}}}
	default:
		plan = [][]devPlan{{{"hpbd0", "hda-fb0", cfg.TenantID}}}
	}
	for _, devs := range plan {
		servers := make([]*hpbd.Server, cfg.Servers)
		for i := range servers {
			servers[i] = n.spawn(area * int64(len(devs)))
		}
		var set []*hpbd.Device
		for _, dp := range devs {
			dc := ccfg
			dc.Tenant = dp.tenant
			if dc.Telemetry == nil {
				dc.Telemetry = n.Tel
				if perTenant {
					dc.Telemetry = telemetry.New(env)
				}
			}
			if cfg.FallbackDisk {
				dc.Fallback = disk.New(env, dp.fallback, area*int64(cfg.Servers), cfg.diskParams())
			}
			dev := hpbd.NewDevice(n.fabric, dp.name, dc)
			for _, srv := range servers {
				if err := dev.ConnectServer(srv, area); err != nil {
					return err
				}
			}
			set = append(set, dev)
		}
		n.sets = append(n.sets, set)
	}
	if cfg.Faults != nil {
		n.Faults = faultsim.New(env, *cfg.Faults, n.Tel)
		for _, s := range n.HPBDServers {
			n.Faults.AddServer(s)
		}
		for _, dev := range n.devices() {
			n.Faults.AddClient(dev)
		}
		n.fabric.SetFaultHook(n.Faults)
		n.Faults.Start()
	}
	n.HPBD = n.sets[0][0]
	switch {
	case perTenant:
		for i, dev := range n.sets[0] {
			n.Tenants = append(n.Tenants, &TenantNode{
				ID:    plan[0][i].tenant,
				Dev:   dev,
				Queue: blockdev.NewQueue(env, host, dev),
				Tel:   dev.Telemetry(),
			})
		}
	case cfg.Mirror:
		n.HPBD2 = n.sets[1][0]
		md, err := mirror.New(env, "md0", n.HPBD, n.HPBD2)
		if err != nil {
			return err
		}
		md.SetTelemetry(n.Tel)
		n.Mirror = md
		n.Queue = blockdev.NewQueue(env, host, md)
	default:
		n.Queue = blockdev.NewQueue(env, host, n.HPBD)
	}
	return nil
}

// spawn brings up the next memN server. It is the one server constructor,
// behind Build and GrowFleet alike, so a server grown at run time has the
// founders' registry, tenancy spec and doorbell batching, and is a target
// of the node's fault schedule.
func (n *Node) spawn(storeBytes int64) *hpbd.Server {
	sc := n.scfg(storeBytes)
	if sc.Telemetry == nil {
		sc.Telemetry = n.Tel
	}
	if sc.Tenancy == nil {
		sc.Tenancy = n.tenancy
	}
	if n.srvBatch > 1 {
		sc.DoorbellBatch = n.srvBatch
	}
	srv := hpbd.NewServer(n.fabric, fmt.Sprintf("mem%d", len(n.HPBDServers)), sc)
	n.HPBDServers = append(n.HPBDServers, srv)
	if n.Faults != nil {
		n.Faults.AddServer(srv)
	}
	return srv
}

// devices returns the node's HPBD devices in attach order.
func (n *Node) devices() []*hpbd.Device {
	var devs []*hpbd.Device
	for _, set := range n.sets {
		devs = append(devs, set...)
	}
	return devs
}

// GrowFleet spawns one new memory server per server set (two for a
// mirrored node, keeping the replica sets symmetric), attaches it to every
// device of the set as rebalancing headroom of areaBytes each and
// live-migrates toward capacity-proportional balance. Returns the servers
// it added; they continue the memN naming sequence.
func (n *Node) GrowFleet(p *sim.Proc, areaBytes int64) ([]*hpbd.Server, error) {
	if n.fabric == nil {
		return nil, fmt.Errorf("cluster: membership requires an HPBD node")
	}
	var added []*hpbd.Server
	for _, set := range n.sets {
		srv := n.spawn(areaBytes * int64(len(set)))
		for _, dev := range set {
			if err := dev.AddServerLive(p, srv, areaBytes); err != nil {
				return added, err
			}
		}
		added = append(added, srv)
	}
	return added, nil
}

// onServer applies op to every device attached to the named server.
func (n *Node) onServer(name string, op func(*hpbd.Device) error) error {
	found := false
	for _, dev := range n.devices() {
		if dev.HasServer(name) {
			found = true
			if err := op(dev); err != nil {
				return err
			}
		}
	}
	if !found {
		return fmt.Errorf("cluster: no server %q", name)
	}
	return nil
}

// DrainServer live-migrates every range off the named server, on every
// device attached to it. The server stays attached until RemoveServer.
func (n *Node) DrainServer(p *sim.Proc, name string) error {
	return n.onServer(name, func(d *hpbd.Device) error { return d.DrainServer(p, name) })
}

// RemoveServer retires a drained server: waits out its in-flight
// stragglers and closes its connections.
func (n *Node) RemoveServer(p *sim.Proc, name string) error {
	return n.onServer(name, func(d *hpbd.Device) error { return d.RemoveServer(p, name) })
}

// Decommission drains and then removes the named server — the two-step
// retire-a-machine flow as one call.
func (n *Node) Decommission(p *sim.Proc, name string) error {
	if err := n.DrainServer(p, name); err != nil {
		return err
	}
	return n.RemoveServer(p, name)
}

// MemberKind is what a MemberOp does to the fleet.
type MemberKind int

const (
	// Grow adds N servers of Area bytes (GrowFleet, N times).
	Grow MemberKind = iota
	// Drain migrates every range off Server.
	Drain
	// Remove retires the drained Server.
	Remove
	// Decommission drains and then removes Server.
	Decommission
)

// MemberOp is one fleet membership change, as data.
type MemberOp struct {
	// At is when the op starts, in virtual time since the node became
	// ready; an op whose time has already passed starts at once.
	At   sim.Duration
	Kind MemberKind
	// N and Area shape a Grow: N servers (0 means 1) per server set, each
	// exporting Area bytes to every device of its set.
	N    int
	Area int64
	// Server names the target of a Drain, Remove or Decommission.
	Server string
}

// OpRecord is one played MemberOp: when it started and ended, and how.
type OpRecord struct {
	Op         MemberOp
	Start, End sim.Time
	Err        error
}

// Play runs ops in order on p, sleeping up to each one's At, and records
// each on n.Ops. It stops at the first op that fails and returns its
// error.
func (n *Node) Play(p *sim.Proc, ops []MemberOp) error {
	n.Ready.Wait(p)
	for i, op := range ops {
		if wait := op.At - p.Now().Sub(n.readyAt); wait > 0 {
			p.Sleep(wait)
		}
		rec := OpRecord{Op: op, Start: p.Now()}
		switch op.Kind {
		case Grow:
			for k := 0; k < max(op.N, 1) && rec.Err == nil; k++ {
				_, rec.Err = n.GrowFleet(p, op.Area)
			}
		case Drain:
			rec.Err = n.DrainServer(p, op.Server)
		case Remove:
			rec.Err = n.RemoveServer(p, op.Server)
		case Decommission:
			rec.Err = n.Decommission(p, op.Server)
		default:
			rec.Err = fmt.Errorf("cluster: unknown membership kind %d", op.Kind)
		}
		rec.End = p.Now()
		n.Ops = append(n.Ops, rec)
		if rec.Err != nil {
			return fmt.Errorf("membership op %d: %w", i, rec.Err)
		}
	}
	return nil
}
