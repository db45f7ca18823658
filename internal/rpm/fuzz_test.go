package rpm

import "testing"

// FuzzParseCapability holds ParseCapability to its printer: whatever it
// accepts must print, and the printed form must parse back to an equal
// Capability. Repository metadata and the depsolve API both carry
// capabilities as these strings, so a value that does not survive the
// trip changes meaning on the way.
func FuzzParseCapability(f *testing.F) {
	for _, s := range []string{
		"openmpi", "gcc >= 4.4", "hdf5 = 1.8.9-3", "hdf5 == 1.8.9",
		"x < 2", "x <= 2", "x > 2", "x ~ 2", "a b c d", "x >= ",
		"kernel > 2:2.6.32-431.el6",
		// An empty release printed as no release at all.
		"lib = 1-2-", "0 = --",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCapability(s)
		if err != nil {
			return
		}
		printed := c.String()
		back, err := ParseCapability(printed)
		if err != nil {
			t.Fatalf("ParseCapability(%q) = %#v prints %q, which does not parse: %v", s, c, printed, err)
		}
		if back != c {
			t.Fatalf("ParseCapability(%q) = %#v prints %q, which parses as %#v", s, c, printed, back)
		}
	})
}
