package hpbd

import (
	"sort"

	"hpbd/internal/sim"
)

// inflight is the table of requests the device owes a completion, keyed
// by wire handle, with the queue that feeds the sender. A request enters
// by admit, leaves by take (completed, or settled by its owner) or cancel
// (pulled back off the wire), and every walk is in handle order —
// completing a request can complete its parent and wake its issuer, so no
// decision may inherit map order.
type inflight struct {
	env   *sim.Env
	reqs  map[uint64]*phys
	nextH uint64
	sendQ *sim.Chan[*phys]
	wdQ   *sim.WaitQueue // parks the watchdog while the table is empty
}

func newInflight(env *sim.Env) inflight {
	return inflight{
		env:   env,
		reqs:  make(map[uint64]*phys),
		sendQ: sim.NewChan[*phys](env, 0),
		wdQ:   sim.NewWaitQueue(env),
	}
}

// stamp gives ph a fresh handle, unsent. A re-sent request is stamped
// before it re-enters the table, which isolates the new attempt from any
// late reply to the previous one (handleReply drops unknown handles).
func (t *inflight) stamp(ph *phys) {
	t.nextH++
	ph.handle = t.nextH
	ph.sent = false
	ph.timedOut = false
}

// hold enters a stamped request the sender already owns (a merge carrier
// replacing its constituents in the batch being issued).
func (t *inflight) hold(ph *phys) { t.reqs[ph.handle] = ph }

// enqueue enters a stamped request and hands it to the sender, waking an
// armed watchdog that parked on an empty table.
func (t *inflight) enqueue(ph *phys) {
	ph.enqAt = t.env.Now()
	t.reqs[ph.handle] = ph
	t.sendQ.TrySend(ph)
	t.wdQ.WakeAll()
}

// admit is stamp then enqueue: the way in for every new or reissued
// request that does not wait between the two.
func (t *inflight) admit(ph *phys) {
	t.stamp(ph)
	t.enqueue(ph)
}

// get looks a handle up without removing it.
func (t *inflight) get(h uint64) (*phys, bool) {
	ph, ok := t.reqs[h]
	return ph, ok
}

// holds reports whether handle h is still ph's: false once ph was taken
// or cancelled, whatever has become of its record since.
func (t *inflight) holds(h uint64, ph *phys) bool { return t.reqs[h] == ph }

// take removes handle h; the caller owns the request and settles it
// exactly once. An absent handle (duplicate or stale) reports false.
func (t *inflight) take(h uint64) (*phys, bool) {
	ph, ok := t.reqs[h]
	delete(t.reqs, h)
	return ph, ok
}

// cancel takes a sent request back off the wire: its flow-control credit
// returns to the link, so a late reply to the old handle misses and
// leaves the credit alone. An absent handle is a no-op.
func (t *inflight) cancel(h uint64) (*phys, bool) {
	ph, ok := t.take(h)
	if ok {
		ph.link.credits.Release(1)
	}
	return ph, ok
}

func (t *inflight) len() int { return len(t.reqs) }

// on counts the requests bound to link.
func (t *inflight) on(link *serverLink) (n int) {
	for _, ph := range t.reqs {
		if ph.link == link {
			n++
		}
	}
	return n
}

// ordered snapshots the table in ascending handle order.
func (t *inflight) ordered() []*phys {
	phs := make([]*phys, 0, len(t.reqs))
	for _, ph := range t.reqs {
		phs = append(phs, ph)
	}
	sort.Slice(phs, func(i, j int) bool { return phs[i].handle < phs[j].handle })
	return phs
}
