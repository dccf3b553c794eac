package blockdev

import (
	"bytes"
	"math/rand"
	"testing"
)

// mergedRequest builds one pending request out of random sector-multiple
// I/Os, each merged at the back or at the front as rng decides, and
// returns it with the payload an independent walk of its I/O list yields.
func mergedRequest(t *testing.T, rng *rand.Rand) (*Request, func() []byte) {
	t.Helper()
	env, q, _ := newQueue(1<<20, 0)
	defer env.Close()
	const mid = (1 << 20) / SectorSize / 2
	lo, hi := int64(mid), int64(mid) // the request covers sectors [lo, hi)
	for total, k := 0, 1+rng.Intn(12); k > 0; k-- {
		sectors := 1 + rng.Intn(16)
		if total += sectors * SectorSize; total > MaxRequestBytes {
			break
		}
		data := make([]byte, sectors*SectorSize)
		rng.Read(data)
		at := hi
		if lo != hi && rng.Intn(2) == 0 {
			at = lo - int64(sectors)
		}
		if _, err := q.Submit(true, at, data); err != nil {
			t.Fatal(err)
		}
		lo, hi = min(lo, at), max(hi, at+int64(sectors))
	}
	if len(q.pending) != 1 {
		t.Fatalf("%d pending requests, want the I/Os merged into one", len(q.pending))
	}
	r := q.pending[0]
	if r.Sector != lo || r.End() != hi {
		t.Fatalf("request covers [%d, %d), want [%d, %d)", r.Sector, r.End(), lo, hi)
	}
	// However the merges alternated, the chain runs in sector order.
	at, n, last := lo, 0, (*IO)(nil)
	for io := r.head; io != nil; io = io.next {
		if io.Sector != at || io.req != r {
			t.Fatalf("chain link %d: sector %d of request %p, want sector %d of %p", n, io.Sector, io.req, at, r)
		}
		at += int64(len(io.Data) / SectorSize)
		n, last = n+1, io
	}
	if at != hi || n != r.NumIOs() || last != r.tail {
		t.Fatalf("chain of %d links ends at sector %d (tail %v), want %d links to %d ending at the tail", n, at, last == r.tail, r.NumIOs(), hi)
	}
	return r, func() []byte {
		var flat []byte
		for io := r.head; io != nil; io = io.next {
			flat = append(flat, io.Data...)
		}
		return flat
	}
}

// Gather and ScatterAt over any (off, n) window agree with slicing, and
// splicing into, the request's payload laid out flat; Data and Scatter are
// the whole-request window.
func TestGatherScatterMatchFlatPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 300; round++ {
		r, flat := mergedRequest(t, rng)
		want := flat()
		if !bytes.Equal(r.Data(), want) {
			t.Fatalf("round %d: Data() differs from the I/O list laid out flat", round)
		}
		for w := 0; w < 8; w++ {
			off := rng.Intn(len(want) + 1)
			n := rng.Intn(len(want) - off + 1)
			dst := make([]byte, n)
			r.Gather(dst, off)
			if !bytes.Equal(dst, want[off:off+n]) {
				t.Fatalf("round %d: Gather(off=%d, n=%d) of %d I/Os differs from the flat slice", round, off, n, r.NumIOs())
			}
			src := make([]byte, n)
			rng.Read(src)
			copy(want[off:], src)
			r.ScatterAt(off, src)
			if !bytes.Equal(flat(), want) {
				t.Fatalf("round %d: ScatterAt(off=%d, n=%d) of %d I/Os differs from the flat splice", round, off, n, r.NumIOs())
			}
		}
		rng.Read(want)
		r.Scatter(want)
		if !bytes.Equal(flat(), want) {
			t.Fatalf("round %d: Scatter differs from the flat payload", round)
		}
	}
}
