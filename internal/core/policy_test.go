package core

import "testing"

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"lazy", "lazy"},
		{" lazy ", "lazy"},
		{"periodic(250)", "periodic(250)"},
		{"periodic:1000", "periodic(1000)"},
		{"periodic( 42 )", "periodic(42)"},
	}
	for _, tc := range cases {
		p, err := ParsePolicy(tc.in)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tc.in, err)
			continue
		}
		if p.Name() != tc.want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", tc.in, p.Name(), tc.want)
		}
	}
	for _, bad := range []string{"", "eager", "periodic", "periodic()", "periodic(0)", "periodic:-5", "periodic(x)"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q): expected error", bad)
		}
	}
}

func TestParsePolicyRoundTripsName(t *testing.T) {
	for _, p := range []Policy{Lazy{}, Periodic{P: 250}} {
		back, err := ParsePolicy(p.Name())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.Name(), err)
		}
		if back.Name() != p.Name() {
			t.Errorf("round trip changed %q to %q", p.Name(), back.Name())
		}
	}
}
