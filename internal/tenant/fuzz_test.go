package tenant

import (
	"reflect"
	"testing"
)

// FuzzParseSpec exercises the text codec: inputs that parse as specs
// must be valid and survive a String/ParseSpec round trip unchanged. Any
// panic, validation escape or round-trip drift is a finding.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"pool=8,A:w4:r8:q2M,B:w1:r4",
		"pool=0,a:r1",
		"pool=32,a:w1,b:w2:q1M",
		"pool=2,a:w1:r30,b:w10",
		"pool=1,x_y-9:w1048576:r1048576:q4G",
		"pool=4,a,a",  // duplicate: must fail, not panic
		"pool=4,a:w0", // invalid weight
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec returned invalid spec: %v", err)
		}
		s2, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", s.String(), err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("text round trip drift: %+v != %+v", s, s2)
		}
	})
}
