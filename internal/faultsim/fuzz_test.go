package faultsim

import "testing"

// FuzzParseSpec checks the text-spec parser on arbitrary input: it must
// never panic, and the text Spec prints for any schedule it accepts must
// parse back and print the same text again. (Spec prints durations at
// the precision Duration.String keeps, so the first print may round;
// after it the text is a fixed point.)
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"crash@5ms=mem0,delay@2ms+4ms~200us=mem1,senderr@1msx3=hpbd0",
		"hang@100us+20ms=mem0",
		"poolx@3ms+1ms=hpbd1,odpinval@3ms=hpbd0,starve@1ms+2ms=mem0",
		"crash@=mem0", // malformed: must fail, not panic
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		text := s.Spec()
		s2, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", text, spec, err)
		}
		if text2 := s2.Spec(); text2 != text {
			t.Fatalf("Spec not a fixed point: %q then %q", text, text2)
		}
	})
}
