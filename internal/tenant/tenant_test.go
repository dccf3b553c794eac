package tenant

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("pool=8,A:w4:r8:q2M,B:w1:r4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Pool != 8 {
		t.Errorf("pool = %d, want 8", s.Pool)
	}
	want := []Tenant{
		{ID: "A", Weight: 4, Reserved: 8, Quota: 2 << 20},
		{ID: "B", Weight: 1, Reserved: 4},
	}
	if !reflect.DeepEqual(s.Tenants, want) {
		t.Errorf("tenants = %+v, want %+v", s.Tenants, want)
	}
	if s.Provisioned() != 8+8+4 {
		t.Errorf("Provisioned = %d, want 20", s.Provisioned())
	}
	if s.TotalWeight() != 5 {
		t.Errorf("TotalWeight = %d, want 5", s.TotalWeight())
	}
}

func TestParseSpecDefaults(t *testing.T) {
	// Bare IDs default to weight 1, no reservation, no quota; tenants
	// are normalized to ID order regardless of spec order.
	s, err := ParseSpec("pool=4,zeta,alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tenants) != 2 || s.Tenants[0].ID != "alpha" || s.Tenants[1].ID != "zeta" {
		t.Fatalf("tenants = %+v, want alpha then zeta", s.Tenants)
	}
	for _, tn := range s.Tenants {
		if tn.Weight != 1 || tn.Reserved != 0 || tn.Quota != 0 {
			t.Errorf("%s = %+v, want weight 1, reserved 0, quota 0", tn.ID, tn)
		}
	}
}

func TestParseSpecQuotaSuffixes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"q512", 512},
		{"q4K", 4 << 10},
		{"q1M", 1 << 20},
		{"q2G", 2 << 30},
	} {
		s, err := ParseSpec("pool=1,a:" + tc.in)
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if got := s.Tenants[0].Quota; got != tc.want {
			t.Errorf("%s: quota = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",                                  // no tenants
		"pool=4",                            // no tenants
		"pool=4,pool=4,a",                   // duplicate pool
		"pool=x,a",                          // bad pool
		"pool=-1,a",                         // negative pool
		"pool=4,a,a",                        // duplicate tenant
		"pool=4,a:w0",                       // weight < 1
		"pool=4,a:wx",                       // bad weight
		"pool=4,a:r-1",                      // negative reservation
		"pool=4,a:q-1",                      // negative quota
		"pool=4,a:z9",                       // unknown field
		"pool=4,a:w",                        // short field
		"pool=4,bad id",                     // bad charset
		"pool=4,a.b",                        // bad charset
		"a",                                 // no provisioned credits
		"pool=4," + strings.Repeat("x", 65), // ID too long
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) = nil error, want failure", spec)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"pool=8,A:w4:r8:q2M,B:w1:r4",
		"pool=0,a:w1:r1",
		"pool=32,a:w1:r0,b:w2:r0:q1M,c:w7:r3:q4097",
	} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		text := s.String()
		s2, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("reparse %q: %v", text, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Errorf("round trip of %q via %q changed spec: %+v != %+v", spec, text, s, s2)
		}
		if text2 := s2.String(); text2 != text {
			t.Errorf("String not a fixed point: %q then %q", text, text2)
		}
	}
}

func TestFind(t *testing.T) {
	s, err := ParseSpec("pool=4,a:w2,b:w3")
	if err != nil {
		t.Fatal(err)
	}
	if f := s.Find("b"); f == nil || f.Weight != 3 {
		t.Errorf("Find(b) = %+v, want weight 3", f)
	}
	if f := s.Find("nope"); f != nil {
		t.Errorf("Find(nope) = %+v, want nil", f)
	}
}
