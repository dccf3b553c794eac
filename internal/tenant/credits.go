package tenant

import "fmt"

// CreditBank partitions one server's receive window among tenants: each
// tenant holds its guaranteed reservation outright and may borrow from
// the shared pool up to a weighted cap (or beyond it while nobody else
// is waiting — the bank is work-conserving). A credit covers one
// request slot from the instant its receive buffer is posted until the
// reply leaves, so the conservation invariant
//
//	free + sum(held reserved + borrowed) == provisioned
//
// holds at every instant; Check is the runtime twin of the
// creditbalance static analyzer and verifies it on demand.
//
// The bank is plain bookkeeping — no processes, no clock — so the
// server drives it from its single-threaded event context and every
// decision is deterministic: flows are scanned in spec (ID) order and
// borrow grants go to the flow with the smallest borrowed/weight ratio,
// ties to the earlier ID.
type CreditBank struct {
	pool     int
	poolFree int
	flows    []*bankFlow
	byID     map[string]*bankFlow
	held     int // independent acquire/release tally, cross-checked by Check
}

// bankFlow is one tenant's bank account.
type bankFlow struct {
	t        Tenant
	cap      int // weighted borrow cap (fair share of the pool)
	heldRes  int // reserved credits currently held
	borrowed int // pool credits currently held
	waiting  int // withheld request slots waiting for a credit
}

// NewCreditBank builds the bank for a validated spec. Borrow caps are
// the pool split by weight, remainders going to earlier IDs.
func NewCreditBank(spec *Spec) *CreditBank {
	b := &CreditBank{
		pool:     spec.Pool,
		poolFree: spec.Pool,
		byID:     make(map[string]*bankFlow, len(spec.Tenants)),
	}
	totalW := spec.TotalWeight()
	rem := spec.Pool
	for i := range spec.Tenants {
		f := &bankFlow{t: spec.Tenants[i]}
		f.cap = spec.Pool * f.t.Weight / totalW
		rem -= f.cap
		b.flows = append(b.flows, f)
		b.byID[f.t.ID] = f
	}
	for i := 0; rem > 0 && len(b.flows) > 0; i++ {
		b.flows[i%len(b.flows)].cap++
		rem--
	}
	return b
}

// TryAcquire takes one credit for tenant id: from its reservation
// first, then from the pool. A flow already at its weighted cap may
// only keep borrowing while no other tenant is waiting for pool
// credits it could use — that keeps the pool work-conserving without
// letting a greedy tenant starve a borrower below its share.
func (b *CreditBank) TryAcquire(id string) bool {
	f := b.byID[id]
	if f == nil {
		return false
	}
	if f.heldRes < f.t.Reserved {
		f.heldRes++
		b.held++
		return true
	}
	if b.poolFree > 0 && (f.borrowed < f.cap || !b.otherPoolDemand(f)) {
		f.borrowed++
		b.poolFree--
		b.held++
		return true
	}
	return false
}

// TryAcquireCapped is the buffer-post acquire: reservation first, then
// the pool only while under the weighted cap. A posted receive buffer
// pins its credit until a request lands on it — which an idle tenant
// may never send — so posts must not borrow past their share;
// beyond-cap borrowing is reserved for Grant, where the decision is
// remade at every release with live demand in view.
func (b *CreditBank) TryAcquireCapped(id string) bool {
	f := b.byID[id]
	if f == nil {
		return false
	}
	if f.heldRes < f.t.Reserved {
		f.heldRes++
		b.held++
		return true
	}
	if b.poolFree > 0 && f.borrowed < f.cap {
		f.borrowed++
		b.poolFree--
		b.held++
		return true
	}
	return false
}

// otherPoolDemand reports whether any flow besides f is waiting and
// still under its borrow cap (i.e. entitled to the pool credit f wants
// to take beyond its own cap).
func (b *CreditBank) otherPoolDemand(f *bankFlow) bool {
	for _, g := range b.flows {
		if g != f && g.waiting > 0 && (g.heldRes < g.t.Reserved || g.borrowed < g.cap) {
			return true
		}
	}
	return false
}

// Release returns one of id's credits: borrowed pool credits go back
// first so the shared pool refills before the private reservation.
func (b *CreditBank) Release(id string) {
	f := b.byID[id]
	if f == nil {
		return
	}
	if f.borrowed > 0 {
		f.borrowed--
		b.poolFree++
	} else if f.heldRes > 0 {
		f.heldRes--
	} else {
		return // over-release: Check reports the imbalance
	}
	b.held--
}

// Waitlist adjusts id's count of withheld request slots (demand). The
// server pairs +1 with stashing a slot and Grant decrements on grant.
func (b *CreditBank) Waitlist(id string, delta int) {
	if f := b.byID[id]; f != nil {
		f.waiting += delta
		if f.waiting < 0 {
			f.waiting = 0
		}
	}
}

// Grant picks the waiting tenant entitled to the next credit, acquires
// it on their behalf, and returns the ID. Priority: reserved
// entitlement in ID order, then the under-cap borrower with the
// smallest borrowed/weight ratio, then (pool still free, nobody under
// cap) any waiter by the same ratio — all deterministic.
func (b *CreditBank) Grant() (string, bool) {
	for _, f := range b.flows {
		if f.waiting > 0 && f.heldRes < f.t.Reserved {
			f.heldRes++
			b.held++
			f.waiting--
			return f.t.ID, true
		}
	}
	if b.poolFree == 0 {
		return "", false
	}
	pick := b.pickBorrower(true)
	if pick == nil {
		pick = b.pickBorrower(false)
	}
	if pick == nil {
		return "", false
	}
	pick.borrowed++
	b.poolFree--
	b.held++
	pick.waiting--
	return pick.t.ID, true
}

// pickBorrower returns the waiting flow with the smallest
// borrowed/weight ratio (ties to the earlier ID), optionally only among
// flows under their borrow cap.
func (b *CreditBank) pickBorrower(underCap bool) *bankFlow {
	var pick *bankFlow
	for _, f := range b.flows {
		if f.waiting == 0 || (underCap && f.borrowed >= f.cap) {
			continue
		}
		// f.borrowed/f.t.Weight < pick.borrowed/pick.t.Weight, cross-multiplied.
		if pick == nil || f.borrowed*pick.t.Weight < pick.borrowed*f.t.Weight {
			pick = f
		}
	}
	return pick
}

// Held returns the credits tenant id currently holds (reserved + borrowed).
func (b *CreditBank) Held(id string) int {
	if f := b.byID[id]; f != nil {
		return f.heldRes + f.borrowed
	}
	return 0
}

// Borrowed returns the pool credits tenant id currently holds.
func (b *CreditBank) Borrowed(id string) int {
	if f := b.byID[id]; f != nil {
		return f.borrowed
	}
	return 0
}

// Waiting returns tenant id's withheld-slot count.
func (b *CreditBank) Waiting(id string) int {
	if f := b.byID[id]; f != nil {
		return f.waiting
	}
	return 0
}

// PoolFree returns the unborrowed pool credits.
func (b *CreditBank) PoolFree() int { return b.poolFree }

// Provisioned returns the total credit supply.
func (b *CreditBank) Provisioned() int {
	n := b.pool
	for _, f := range b.flows {
		n += f.t.Reserved
	}
	return n
}

// Check verifies the conservation invariant — held + free equals
// provisioned, per-flow holdings inside their bounds, and the running
// acquire/release tally consistent with the per-flow state. It is the
// runtime twin of the creditbalance analyzer: the server runs it at
// every credit operation and scheduler tick.
func (b *CreditBank) Check() error {
	if b.poolFree < 0 || b.poolFree > b.pool {
		return fmt.Errorf("tenant: pool free %d outside [0,%d]", b.poolFree, b.pool)
	}
	held, borrowed := 0, 0
	for _, f := range b.flows {
		if f.heldRes < 0 || f.heldRes > f.t.Reserved {
			return fmt.Errorf("tenant: %s holds %d reserved credits of %d", f.t.ID, f.heldRes, f.t.Reserved)
		}
		if f.borrowed < 0 {
			return fmt.Errorf("tenant: %s borrowed %d < 0", f.t.ID, f.borrowed)
		}
		if f.waiting < 0 {
			return fmt.Errorf("tenant: %s waiting %d < 0", f.t.ID, f.waiting)
		}
		held += f.heldRes + f.borrowed
		borrowed += f.borrowed
	}
	if borrowed+b.poolFree != b.pool {
		return fmt.Errorf("tenant: pool leak: borrowed %d + free %d != %d", borrowed, b.poolFree, b.pool)
	}
	if held != b.held {
		return fmt.Errorf("tenant: held tally %d != per-flow sum %d", b.held, held)
	}
	free := b.poolFree
	for _, f := range b.flows {
		free += f.t.Reserved - f.heldRes
	}
	if held+free != b.Provisioned() {
		return fmt.Errorf("tenant: held %d + free %d != provisioned %d", held, free, b.Provisioned())
	}
	return nil
}
