package placement

import (
	"math/rand"
	"reflect"
	"testing"
)

// founders bootstraps a directory from the given areas, in order — what
// the client builds at ConnectServer time — and, when stripe > 0, lays the
// founding table round-robin.
func founders(t *testing.T, stripe int64, areas ...int64) *Directory {
	t.Helper()
	d := NewDirectory()
	for _, a := range areas {
		d.Bootstrap("s", a)
		if stripe > 0 {
			if err := d.Stripe(stripe); err != nil {
				t.Fatalf("Stripe(%d): %v", stripe, err)
			}
		}
	}
	if d.Epoch() != 0 {
		t.Fatalf("bootstrap epoch = %d, want 0", d.Epoch())
	}
	return d
}

// equal returns n areas of size bytes each.
func equal(n int, size int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// A bootstrapped directory must reproduce the seed client's blocked split
// math exactly: these tables are the segment lists the original
// client.go split produced for the Figure 10 sixteen-server layout and
// the boundary cases.
func TestBlockedGoldenSixteenServers(t *testing.T) {
	const area = 256 * 1024
	d := founders(t, 0, equal(16, area)...)

	// A device-spanning request: one full-area segment per server, in
	// address order.
	got := d.SplitInto(nil, 0, 16*area)
	if len(got) != 16 {
		t.Fatalf("full-device split into %d segments, want 16", len(got))
	}
	for i, sg := range got {
		want := Segment{Server: i, Offset: 0, Off: i * area, Length: area, DevByte: int64(i) * area}
		if sg != want {
			t.Errorf("seg %d = %+v, want %+v", i, sg, want)
		}
	}

	// The last page of every server's range stays whole and lands at the
	// area tail.
	for i := 0; i < 16; i++ {
		start := int64(i+1)*area - 4096
		segs := d.SplitInto(nil, start, 4096)
		want := []Segment{{Server: i, Offset: area - 4096, Off: 0, Length: 4096, DevByte: start}}
		if !reflect.DeepEqual(segs, want) {
			t.Errorf("tail page of server %d = %+v, want %+v", i, segs, want)
		}
	}
}

func TestBlockedGoldenBoundaries(t *testing.T) {
	const area = 1 << 20
	d := founders(t, 0, area, area)

	cases := []struct {
		name  string
		start int64
		n     int
		want  []Segment
	}{
		{
			"straddle split at the area edge",
			area - 4096, 8192,
			[]Segment{
				{Server: 0, Offset: area - 4096, Off: 0, Length: 4096, DevByte: area - 4096},
				{Server: 1, Offset: 0, Off: 4096, Length: 4096, DevByte: area},
			},
		},
		{
			"last sector of area 0",
			area - SectorSize, SectorSize,
			[]Segment{{Server: 0, Offset: area - SectorSize, Off: 0, Length: SectorSize, DevByte: area - SectorSize}},
		},
		{
			"first sector of area 1",
			area, SectorSize,
			[]Segment{{Server: 1, Offset: 0, Off: 0, Length: SectorSize, DevByte: area}},
		},
		{
			"device tail sector",
			2*area - SectorSize, SectorSize,
			[]Segment{{Server: 1, Offset: area - SectorSize, Off: 0, Length: SectorSize, DevByte: 2*area - SectorSize}},
		},
		{"past the device end", 2*area - SectorSize, 2 * SectorSize, nil},
		{"entirely out of range", 2 * area, SectorSize, nil},
	}
	for _, c := range cases {
		if got := d.SplitInto(nil, c.start, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestStripedGolden(t *testing.T) {
	const area = 1 << 20
	const stripe = 64 * 1024
	d := founders(t, stripe, area, area)

	cases := []struct {
		name  string
		start int64
		n     int
		want  []Segment
	}{
		{
			"two full stripes alternate servers",
			0, 2 * stripe,
			[]Segment{
				{Server: 0, Offset: 0, Off: 0, Length: stripe, DevByte: 0},
				{Server: 1, Offset: 0, Off: stripe, Length: stripe, DevByte: stripe},
			},
		},
		{
			"straddle splits at the stripe edge",
			stripe - 4096, 8192,
			[]Segment{
				{Server: 0, Offset: stripe - 4096, Off: 0, Length: 4096, DevByte: stripe - 4096},
				{Server: 1, Offset: 0, Off: 4096, Length: 4096, DevByte: stripe},
			},
		},
		{
			"chunk 2 wraps to server 0 row 1",
			2 * stripe, 4096,
			[]Segment{{Server: 0, Offset: stripe, Off: 0, Length: 4096, DevByte: 2 * stripe}},
		},
		{"past the last row", 2 * area, SectorSize, nil},
	}
	for _, c := range cases {
		if got := d.SplitInto(nil, c.start, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

// Areas that are not equal multiples of the stripe: full rows run up to
// the smallest area, and each server's remainder follows as a blocked
// tail, so every sector of every area stays addressable.
func TestStripeMisalignedAreas(t *testing.T) {
	const stripe = 64 * 1024
	const a0, a1 = 3*stripe + 8192, 2*stripe + 4096 // 2 full rows, tails 72K and 4K
	d := founders(t, stripe, a0, a1)

	if got, want := d.TotalSectors(), int64(a0+a1)/SectorSize; got != want {
		t.Fatalf("TotalSectors = %d, want %d", got, want)
	}
	const rows = 4 * stripe // device bytes covered by the round-robin rows
	cases := []struct {
		name  string
		start int64
		n     int
		want  []Segment
	}{
		{
			"last full row still alternates",
			2 * stripe, 2 * stripe,
			[]Segment{
				{Server: 0, Offset: stripe, Off: 0, Length: stripe, DevByte: 2 * stripe},
				{Server: 1, Offset: stripe, Off: stripe, Length: stripe, DevByte: 3 * stripe},
			},
		},
		{
			"server 0's tail follows the rows as one blocked range",
			rows, stripe + 8192,
			[]Segment{{Server: 0, Offset: 2 * stripe, Off: 0, Length: stripe + 8192, DevByte: rows}},
		},
		{
			"server 1's tail closes the device",
			rows + stripe + 8192 - 4096, 8192,
			[]Segment{
				{Server: 0, Offset: a0 - 4096, Off: 0, Length: 4096, DevByte: rows + stripe + 8192 - 4096},
				{Server: 1, Offset: 2 * stripe, Off: 4096, Length: 4096, DevByte: rows + stripe + 8192},
			},
		},
		{"past the tails", a0 + a1, SectorSize, nil},
	}
	for _, c := range cases {
		if got := d.SplitInto(nil, c.start, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
	if err := d.Stripe(1000); err == nil {
		t.Error("a stripe that is not a sector multiple must be refused")
	}
	d.AddServer("late", stripe)
	if err := d.Stripe(stripe); err == nil {
		t.Error("striping after a membership change must be refused")
	}
}

// The one property every layout and every history must keep: SplitInto
// appends to the caller's scratch segments that tile the requested bytes
// exactly, each segment lies inside one range, and
// SectorAt inverts it. Random founding layouts (blocked and striped),
// then random reserve/commit moves on the blocked ones.
func TestQuickSplitTilesAndInverts(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var stripe int64
		if seed%3 == 0 {
			stripe = int64(1+rnd.Intn(16)) * 4096
		}
		var areas []int64
		for i, n := 0, 1+rnd.Intn(5); i < n; i++ {
			areas = append(areas, int64(1+rnd.Intn(512))*SectorSize)
		}
		d := founders(t, stripe, areas...)
		if stripe == 0 {
			d.AddServer("grown", int64(256+rnd.Intn(1024))*SectorSize)
			for k := rnd.Intn(12); k > 0; k-- {
				randomMove(d, rnd)
			}
		}
		checkSplit(t, seed, d, rnd)
	}
}

// randomMove re-hosts a random sub-range of one random range on another
// server that has room for it, the way the migration engine would.
func randomMove(d *Directory, rnd *rand.Rand) {
	rs := d.Ranges()
	r := rs[rnd.Intn(len(rs))]
	lo := rnd.Int63n(r.Sectors)
	mv := Move{
		Start:   r.Start + lo,
		Sectors: 1 + rnd.Int63n(r.Sectors-lo),
		From:    r.Server,
		To:      rnd.Intn(d.NumServers()),
	}
	mv.SrcAreaOff = r.AreaOff + lo*SectorSize
	if mv.To == mv.From {
		return
	}
	if off, err := d.Reserve(mv); err == nil {
		d.Commit(mv, off)
	}
}

func checkSplit(t *testing.T, seed int64, d *Directory, rnd *rand.Rand) {
	t.Helper()
	total := d.TotalSectors() * SectorSize
	ranges := d.Ranges()
	// One scratch for all 200 splits, reused the way the driver reuses a
	// record's: behind a sentinel the appends must leave alone.
	sentinel := Segment{Server: -1}
	scratch := []Segment{sentinel}
	for k := 0; k < 200; k++ {
		x := rnd.Int63n(total)
		n := 1 + rnd.Intn(int(min(total-x, 256*1024)))
		scratch = d.SplitInto(scratch[:1], x, n)
		if scratch[0] != sentinel {
			t.Fatalf("seed %d: SplitInto(%d, %d) overwrote what dst already held: %+v", seed, x, n, scratch[0])
		}
		segs := scratch[1:]
		at, off := x, 0
		for _, sg := range segs {
			if sg.DevByte != at || sg.Off != off || sg.Length <= 0 {
				t.Fatalf("seed %d: Split(%d, %d) does not tile: segment %+v at byte %d, off %d", seed, x, n, sg, at, off)
			}
			// One range holds the whole segment, on the segment's server.
			inOne := false
			for _, r := range ranges {
				if r.Server == sg.Server && sg.DevByte >= r.Start*SectorSize &&
					sg.DevByte+int64(sg.Length) <= (r.Start+r.Sectors)*SectorSize {
					inOne = sg.Offset == r.AreaOff+sg.DevByte-r.Start*SectorSize
				}
			}
			if !inOne {
				t.Fatalf("seed %d: segment %+v lies in no single range of %+v", seed, sg, ranges)
			}
			sec, ok := d.SectorAt(sg.Server, sg.Offset)
			if !ok || sec != sg.DevByte/SectorSize {
				t.Fatalf("seed %d: SectorAt(%d, %d) = %d, %v; want sector %d", seed, sg.Server, sg.Offset, sec, ok, sg.DevByte/SectorSize)
			}
			at += int64(sg.Length)
			off += sg.Length
		}
		if at != x+int64(n) {
			t.Fatalf("seed %d: Split(%d, %d) covers up to byte %d", seed, x, n, at)
		}
	}
	if got := d.SplitInto(scratch[:1], total-SectorSize, 2*SectorSize); got != nil {
		t.Fatalf("seed %d: a split past the device end returned %+v", seed, got)
	}
}

// SplitInto writes into the caller's scratch: once that has grown to the
// most ranges a request crosses, a split allocates nothing — on the
// paper's blocked layout (a request crossing the one boundary) and on a
// striped one (a request crossing many).
func TestSplitIntoAllocsPerRun(t *testing.T) {
	const area = 1 << 20
	for _, tc := range []struct {
		name     string
		stripe   int64
		start    int64
		n, nsegs int
	}{
		{"two ranges", 0, area - 64<<10, 128 << 10, 2},
		{"striped", 16 << 10, 8 << 10, 128 << 10, 9},
	} {
		d := founders(t, tc.stripe, area, area)
		scratch := d.SplitInto(nil, tc.start, tc.n)
		if len(scratch) != tc.nsegs {
			t.Fatalf("%s: %d segments, want %d", tc.name, len(scratch), tc.nsegs)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			scratch = d.SplitInto(scratch[:0], tc.start, tc.n)
		}); allocs != 0 || len(scratch) != tc.nsegs {
			t.Errorf("%s: %.2f allocs per SplitInto with caller scratch (%d segments), want 0", tc.name, allocs, len(scratch))
		}
	}
}
