package server

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

func hdr(kv ...string) http.Header {
	h := http.Header{}
	for i := 0; i+1 < len(kv); i += 2 {
		h.Set(kv[i], kv[i+1])
	}
	return h
}

func TestParseGrantDefaults(t *testing.T) {
	pol := DefaultPolicy()
	g, err := parseGrant(hdr(), pol, 8)
	if err != nil {
		t.Fatalf("parseGrant(empty): %v", err)
	}
	if g.Timeout != pol.DefaultTimeout {
		t.Errorf("Timeout = %v, want policy default %v", g.Timeout, pol.DefaultTimeout)
	}
	if g.BDDNodes != maxBDDNodes || g.Cubes != maxCubes || g.Steps != maxSteps {
		t.Errorf("budgets = (%d,%d,%d), want policy ceilings", g.BDDNodes, g.Cubes, g.Steps)
	}
	if g.Workers != 8 {
		t.Errorf("Workers = %d, want whole pool (8)", g.Workers)
	}
	if g.Method != core.MethodCube || g.Polarity != core.PolarityGreedy || g.NoCache {
		t.Errorf("flow = (%v,%v,nocache=%v), want cube/greedy/false", g.Method, g.Polarity, g.NoCache)
	}
}

// TestParseGrantClamps: absurd-but-valid requests are clamped to policy,
// never granted raw and never rejected.
func TestParseGrantClamps(t *testing.T) {
	pol := DefaultPolicy()
	g, err := parseGrant(hdr(
		"X-Rmsynd-Timeout", "48h",
		"X-Rmsynd-Max-Bdd-Nodes", "999999999",
		"X-Rmsynd-Max-Cubes", "999999999999",
		"X-Rmsynd-Workers", "4096",
	), pol, 4)
	if err != nil {
		t.Fatalf("parseGrant: %v", err)
	}
	if g.Timeout != pol.MaxTimeout {
		t.Errorf("Timeout = %v, want clamp %v", g.Timeout, pol.MaxTimeout)
	}
	if g.BDDNodes != maxBDDNodes {
		t.Errorf("BDDNodes = %d, want ceiling %d", g.BDDNodes, maxBDDNodes)
	}
	if g.Cubes != maxCubes {
		t.Errorf("Cubes = %d, want ceiling %d", g.Cubes, maxCubes)
	}
	if g.Workers != 4 {
		t.Errorf("Workers = %d, want pool size 4", g.Workers)
	}

	// Sub-floor timeouts are raised, not rejected: a 1ns budget is a
	// client rounding artifact, not a request for instant failure.
	g, err = parseGrant(hdr("X-Rmsynd-Timeout", "1ns"), pol, 4)
	if err != nil {
		t.Fatalf("parseGrant(1ns): %v", err)
	}
	if g.Timeout != minTimeout {
		t.Errorf("Timeout = %v, want floor %v", g.Timeout, minTimeout)
	}

	// In-range values pass through untouched.
	g, err = parseGrant(hdr(
		"X-Rmsynd-Timeout", "5s",
		"X-Rmsynd-Max-Cubes", "1000",
		"X-Rmsynd-Workers", "2",
		"X-Rmsynd-Method", "ofdd",
		"X-Rmsynd-Polarity", "exhaustive",
		"X-Rmsynd-No-Cache", "1",
	), pol, 4)
	if err != nil {
		t.Fatalf("parseGrant(in-range): %v", err)
	}
	if g.Timeout != 5*time.Second || g.Cubes != 1000 || g.Workers != 2 {
		t.Errorf("grant = timeout %v cubes %d workers %d, want 5s/1000/2", g.Timeout, g.Cubes, g.Workers)
	}
	if g.Method != core.MethodOFDD || g.Polarity != core.PolarityExhaustive || !g.NoCache {
		t.Errorf("flow = (%v,%v,%v), want ofdd/exhaustive/nocache", g.Method, g.Polarity, g.NoCache)
	}
}

// TestParseGrantRejects: unparseable garbage is a hard 400-class error —
// silently defaulting would hide client bugs.
func TestParseGrantRejects(t *testing.T) {
	pol := DefaultPolicy()
	cases := [][2]string{
		{"X-Rmsynd-Timeout", "soon"},
		{"X-Rmsynd-Timeout", "-3s"},
		{"X-Rmsynd-Max-Bdd-Nodes", "-1"},
		{"X-Rmsynd-Max-Cubes", "lots"},
		{"X-Rmsynd-Workers", "-2"},
		{"X-Rmsynd-Workers", "many"},
		{"X-Rmsynd-Method", "magic"},
		{"X-Rmsynd-Polarity", "sideways"},
		{"X-Rmsynd-No-Cache", "maybe"},
	}
	for _, c := range cases {
		_, err := parseGrant(hdr(c[0], c[1]), pol, 4)
		oe, ok := err.(*optErr)
		if !ok {
			t.Errorf("%s=%q: err = %v, want *optErr", c[0], c[1], err)
			continue
		}
		if oe.header != c[0] {
			t.Errorf("%s=%q: error names header %q", c[0], c[1], oe.header)
		}
	}
}

// TestGrantKeys: the store key ignores budgets (clean results are
// budget-independent) while the flight key does not (a request must not
// coalesce onto a tighter-budget flight).
func TestGrantKeys(t *testing.T) {
	pol := DefaultPolicy()
	a, _ := parseGrant(hdr("X-Rmsynd-Max-Cubes", "100"), pol, 4)
	b, _ := parseGrant(hdr("X-Rmsynd-Max-Cubes", "200"), pol, 4)
	if a.flowKey() != b.flowKey() {
		t.Errorf("flowKey differs on budgets: %q vs %q", a.flowKey(), b.flowKey())
	}
	if a.flightKey() == b.flightKey() {
		t.Errorf("flightKey ignores budgets: %q", a.flightKey())
	}
	c, _ := parseGrant(hdr("X-Rmsynd-Method", "ofdd"), pol, 4)
	if a.flowKey() == c.flowKey() {
		t.Errorf("flowKey ignores the method: %q", a.flowKey())
	}
}

func TestSniffFormat(t *testing.T) {
	cases := []struct {
		body, want string
	}{
		{".model x\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n", "blif"},
		{"# comment\n\n.inputs a\n", "blif"},
		{".i 2\n.o 1\n.p 1\n11 1\n.e\n", "pla"},
		{"# pla\n.type fr\n", "pla"},
		{"just text\n", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := sniffFormat([]byte(c.body)); got != c.want {
			t.Errorf("sniffFormat(%.20q) = %q, want %q", c.body, got, c.want)
		}
	}
}
