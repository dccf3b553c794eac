package cluster

// Runtime fleet membership: the controller face of the placement
// subsystem. An HPBD node can grow its server fleet, drain servers and
// decommission them while swap I/O keeps flowing; the
// HPBD device's placement directory and live migration engine do the
// heavy lifting (internal/hpbd/elastic.go, internal/placement).
//
// Mirrored nodes stay fully replicated across membership changes: every
// operation is applied to both replica devices, and since each device
// always maps the whole sector space onto its own (disjoint) fleet, every
// sector keeps one copy per side through any sequence of grows and
// drains — re-replication falls out of the RAID-1 geometry rather than
// needing a copy protocol of its own.

import (
	"fmt"

	"hpbd/internal/hpbd"
	"hpbd/internal/sim"
)

// devices returns the node's HPBD devices (one, or two when mirrored).
func (n *Node) devices() []*hpbd.Device {
	if n.HPBD == nil {
		return nil
	}
	if n.HPBD2 != nil {
		return []*hpbd.Device{n.HPBD, n.HPBD2}
	}
	return []*hpbd.Device{n.HPBD}
}

// GrowFleet spawns one new memory server per HPBD device (two for a
// mirrored node, keeping the replica sets symmetric), attaches each as
// rebalancing headroom and live-migrates the fleet toward
// capacity-proportional balance. Returns the servers it added. New
// servers continue the memN naming sequence and are registered with the
// node's fault injector, so fault schedules can target them.
func (n *Node) GrowFleet(p *sim.Proc, areaBytes int64) ([]*hpbd.Server, error) {
	if n.fabric == nil {
		return nil, fmt.Errorf("cluster: membership requires an HPBD node")
	}
	var added []*hpbd.Server
	for _, dev := range n.devices() {
		sc := n.scfg(areaBytes)
		if sc.Telemetry == nil {
			sc.Telemetry = n.Tel
		}
		if n.srvBatch > 1 {
			sc.DoorbellBatch = n.srvBatch
		}
		srv := hpbd.NewServer(n.fabric, fmt.Sprintf("mem%d", n.nextSrv), sc)
		n.nextSrv++
		if err := dev.AddServerLive(p, srv, areaBytes); err != nil {
			return added, err
		}
		n.HPBDServers = append(n.HPBDServers, srv)
		if n.Faults != nil {
			n.Faults.AddServer(srv)
		}
		added = append(added, srv)
	}
	return added, nil
}

// DrainServer live-migrates every range off the named server (on
// whichever device owns it). The server stays attached until
// RemoveServer.
func (n *Node) DrainServer(p *sim.Proc, name string) error {
	for _, dev := range n.devices() {
		if dev.HasServer(name) {
			return dev.DrainServer(p, name)
		}
	}
	return fmt.Errorf("cluster: no server %q", name)
}

// RemoveServer retires a drained server: waits out its in-flight
// stragglers and closes its connection.
func (n *Node) RemoveServer(p *sim.Proc, name string) error {
	for _, dev := range n.devices() {
		if dev.HasServer(name) {
			return dev.RemoveServer(p, name)
		}
	}
	return fmt.Errorf("cluster: no server %q", name)
}

// Decommission drains and then removes the named server — the two-step
// retire-a-machine flow as one call.
func (n *Node) Decommission(p *sim.Proc, name string) error {
	if err := n.DrainServer(p, name); err != nil {
		return err
	}
	return n.RemoveServer(p, name)
}
