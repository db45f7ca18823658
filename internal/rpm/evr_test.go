package rpm

import (
	"math/rand/v2"
	"testing"
)

func TestVercmpTable(t *testing.T) {
	// Cases drawn from the rpmvercmp reference test suite.
	cases := []struct {
		a, b string
		want int
	}{
		{"1.0", "1.0", 0},
		{"1.0", "2.0", -1},
		{"2.0", "1.0", 1},
		{"2.0.1", "2.0.1", 0},
		{"2.0", "2.0.1", -1},
		{"2.0.1a", "2.0.1a", 0},
		{"2.0.1a", "2.0.1", 1},
		{"5.5p1", "5.5p1", 0},
		{"5.5p1", "5.5p2", -1},
		{"5.5p10", "5.5p1", 1},
		{"10xyz", "10.1xyz", -1},
		{"xyz10", "xyz10", 0},
		{"xyz10", "xyz10.1", -1},
		{"xyz.4", "xyz.4", 0},
		{"xyz.4", "8", -1},
		{"8", "xyz.4", 1},
		{"xyz.4", "2", -1},
		{"5.5p2", "5.6p1", -1},
		{"5.6p1", "6.5p1", -1},
		{"6.0.rc1", "6.0", 1},
		{"10b2", "10a1", 1},
		{"10a2", "10b2", -1},
		{"1.0aa", "1.0aa", 0},
		{"1.0a", "1.0aa", -1},
		{"10.0001", "10.0001", 0},
		{"10.0001", "10.1", 0},
		{"10.1", "10.0001", 0},
		{"10.0001", "10.0039", -1},
		{"4.999.9", "5.0", -1},
		{"20101121", "20101121", 0},
		{"20101121", "20101122", -1},
		{"2_0", "2_0", 0},
		{"2.0", "2_0", 0},
		{"a", "a", 0},
		{"a+", "a+", 0},
		{"a+", "a_", 0},
		{"+a", "+a", 0},
		{"+a", "_a", 0},
		{"+_", "_+", 0},
		{"+", "_", 0},
		{"1.0~rc1", "1.0~rc1", 0},
		{"1.0~rc1", "1.0", -1},
		{"1.0", "1.0~rc1", 1},
		{"1.0~rc1", "1.0~rc2", -1},
		{"1.0~rc1~git123", "1.0~rc1~git123", 0},
		{"1.0~rc1~git123", "1.0~rc1", -1},
		{"1.0~rc1", "1.0~rc1~git123", 1},
		{"1.0^", "1.0^", 0},
		{"1.0^", "1.0", 1},
		{"1.0", "1.0^", -1},
		{"1.0^git1", "1.0^git1", 0},
		{"1.0^git1", "1.0", 1},
		{"1.0^git1", "1.0^git2", -1},
		{"1.0^git1", "1.01", -1},
		{"1.0^20160101", "1.0^20160101", 0},
		{"1.0^20160101", "1.0.1", -1},
		{"1.0^20160102", "1.0^20160101^git1", 1},
		{"1.0~rc1^git1", "1.0~rc1^git1", 0},
		{"1.0~rc1^git1", "1.0~rc1", 1},
		{"1.0^git1~pre", "1.0^git1", -1},
	}
	for _, c := range cases {
		if got := Vercmp(c.a, c.b); got != c.want {
			t.Errorf("Vercmp(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// propertyRuns is how many generated cases each Vercmp and Compare property
// checks.
const propertyRuns = 2000

func TestVercmpPropertyAntisymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for range propertyRuns {
		a, b := genVersion(rng), genVersion(rng)
		if Vercmp(a, b) != -Vercmp(b, a) {
			t.Fatalf("Vercmp(%q, %q) = %d but Vercmp(%q, %q) = %d", a, b, Vercmp(a, b), b, a, Vercmp(b, a))
		}
		x, y := genEVR(rng), genEVR(rng)
		if x.Compare(y) != -y.Compare(x) {
			t.Fatalf("%+v.Compare(%+v) = %d but the reverse is %d", x, y, x.Compare(y), y.Compare(x))
		}
	}
}

func TestVercmpPropertyReflexive(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for range propertyRuns {
		if a := genVersion(rng); Vercmp(a, a) != 0 {
			t.Fatalf("Vercmp(%q, %q) = %d, want 0", a, a, Vercmp(a, a))
		}
	}
}

func TestVercmpPropertyTransitiveOnTriples(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for range propertyRuns {
		a, b, c := genVersion(rng), genVersion(rng), genVersion(rng)
		if Vercmp(a, b) <= 0 && Vercmp(b, c) <= 0 && Vercmp(a, c) > 0 {
			t.Fatalf("%q <= %q <= %q but Vercmp(%q, %q) = %d", a, b, c, a, c, Vercmp(a, c))
		}
		x, y, z := genEVR(rng), genEVR(rng), genEVR(rng)
		if x.Compare(y) <= 0 && y.Compare(z) <= 0 && x.Compare(z) > 0 {
			t.Fatalf("%+v <= %+v <= %+v but Compare of the ends = %d", x, y, z, x.Compare(z))
		}
	}
}

// genVersion generates realistic version strings for property tests.
func genVersion(r *rand.Rand) string {
	pieces := []string{"0", "1", "2", "10", "04", "a", "b", "rc", "git", "el6", "p", "~", "^", ".", "-", "_"}
	s := ""
	for range 1 + r.IntN(6) {
		s += pieces[r.IntN(len(pieces))]
	}
	return s
}

// genEVR generates an (epoch, version, release) triple. Half the versions
// are "1.0", so that pairs often tie on epoch and version and the release
// decides.
func genEVR(r *rand.Rand) EVR {
	v := genVersion(r)
	if r.IntN(2) == 0 {
		v = "1.0"
	}
	return EVR{Epoch: r.IntN(3), Version: v, Release: genVersion(r)}
}

func TestParseEVR(t *testing.T) {
	cases := []struct {
		in      string
		want    EVR
		wantErr bool
	}{
		{"1.2.3-4.el6", EVR{0, "1.2.3", "4.el6"}, false},
		{"2:1.4-5", EVR{2, "1.4", "5"}, false},
		{"1.2.3", EVR{0, "1.2.3", ""}, false},
		{"0:6.1.1-1", EVR{0, "6.1.1", "1"}, false},
		{"3.10.0-229.el7", EVR{0, "3.10.0", "229.el7"}, false},
		{"", EVR{}, true},
		{":1.0", EVR{}, true},
		{"x:1.0", EVR{}, true},
		{"-1", EVR{}, true},
		{"1-2-", EVR{}, true},
		{"1.0-", EVR{}, true},
	}
	for _, c := range cases {
		got, err := ParseEVR(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseEVR(%q) should fail, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEVR(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseEVR(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestEVRStringRoundTrip(t *testing.T) {
	for _, s := range []string{"1.2.3-4.el6", "2:1.4-5", "1.2.3", "10:0.9-0.1"} {
		evr := MustParseEVR(s)
		back, err := ParseEVR(evr.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", s, err)
		}
		if back != evr {
			t.Errorf("round trip %q: got %+v, want %+v", s, back, evr)
		}
	}
}

func TestEVRCompareEpochDominates(t *testing.T) {
	lo := MustParseEVR("9.9-9")
	hi := MustParseEVR("1:0.1-1")
	if lo.Compare(hi) >= 0 {
		t.Error("epoch 1 should beat any epoch-0 version")
	}
	if hi.Compare(lo) <= 0 {
		t.Error("compare should be antisymmetric")
	}
}

func TestEVRCompareReleaseBreaksTies(t *testing.T) {
	a := MustParseEVR("1.0-1")
	b := MustParseEVR("1.0-2")
	if a.Compare(b) != -1 {
		t.Errorf("1.0-1 vs 1.0-2 = %d, want -1", a.Compare(b))
	}
	if a.Compare(a) != 0 {
		t.Error("self-compare should be 0")
	}
}

func TestMustParseEVRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseEVR should panic on bad input")
		}
	}()
	MustParseEVR("")
}
