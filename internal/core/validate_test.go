package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/network"
)

func tinySpec() *network.Network {
	n := network.New("tiny")
	a := n.AddPI("a")
	b := n.AddPI("b")
	n.AddPO("y", n.AddGate(network.And, a, b))
	return n
}

func TestOptionsValidate(t *testing.T) {
	ok := func(mod func(*Options)) Options {
		o := DefaultOptions()
		if mod != nil {
			mod(&o)
		}
		return o
	}
	cases := []struct {
		name string
		opt  Options
		bad  bool
	}{
		{"default", ok(nil), false},
		{"zero value", Options{}, false},
		{"workers gomaxprocs-default", ok(func(o *Options) { o.Workers = 0 }), false},
		{"workers negative", ok(func(o *Options) { o.Workers = -1 }), true},
		{"workers absurd", ok(func(o *Options) { o.Workers = 1 << 20 }), true},
		{"workers sane", ok(func(o *Options) { o.Workers = 64 }), false},
		{"retry zero disables", ok(func(o *Options) { o.RetryFactor = 0 }), false},
		{"retry negative", ok(func(o *Options) { o.RetryFactor = -2 }), true},
		{"retry nan", ok(func(o *Options) { o.RetryFactor = math.NaN() }), true},
		{"retry inf", ok(func(o *Options) { o.RetryFactor = math.Inf(1) }), true},
		{"retry absurd", ok(func(o *Options) { o.RetryFactor = 1e9 }), true},
		{"method unknown", ok(func(o *Options) { o.Method = 7 }), true},
		{"polarity unknown", ok(func(o *Options) { o.Polarity = 9 }), true},
		{"budget negative", ok(func(o *Options) { o.MaxCubes = -1 }), true},
		{"budget zero unlimited", ok(func(o *Options) { o.MaxSteps = 0 }), false},
	}
	for _, tc := range cases {
		err := tc.opt.Validate()
		if tc.bad && !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: Validate() = %v, want ErrBadOptions", tc.name, err)
		}
		if !tc.bad && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
	}
}

// TestSynthesizeRejectsBadOptions: the boundary check actually guards
// Synthesize — garbage options are an error before any work, not silent
// misbehaviour halfway into the pipeline.
func TestSynthesizeRejectsBadOptions(t *testing.T) {
	spec := tinySpec()
	for _, mod := range []func(*Options){
		func(o *Options) { o.Workers = -3 },
		func(o *Options) { o.RetryFactor = math.NaN() },
		func(o *Options) { o.Method = 99 },
	} {
		opt := DefaultOptions()
		mod(&opt)
		res, err := Synthesize(context.Background(), spec, opt)
		if !errors.Is(err, ErrBadOptions) {
			t.Fatalf("Synthesize with bad options: res=%v err=%v, want ErrBadOptions", res, err)
		}
	}
	// And the sane path still works on the same spec.
	if _, err := Synthesize(context.Background(), spec, DefaultOptions()); err != nil {
		t.Fatalf("Synthesize with default options: %v", err)
	}
}

// TestParseNamesRoundTrip: every method and polarity parses back from
// its String name, "" selects the DefaultOptions value, and an unknown
// name is ErrBadOptions.
func TestParseNamesRoundTrip(t *testing.T) {
	def := DefaultOptions()
	for _, m := range []Method{MethodCube, MethodOFDD} {
		if got, err := ParseMethod(m.String()); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := ParseMethod(""); err != nil || got != def.Method {
		t.Errorf(`ParseMethod("") = %v, %v; want %v`, got, err, def.Method)
	}
	for _, p := range []Polarity{PolarityPositive, PolarityGreedy, PolarityExhaustive} {
		if got, err := ParsePolarity(p.String()); err != nil || got != p {
			t.Errorf("ParsePolarity(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if got, err := ParsePolarity(""); err != nil || got != def.Polarity {
		t.Errorf(`ParsePolarity("") = %v, %v; want %v`, got, err, def.Polarity)
	}
	if _, err := ParseMethod("3"); !errors.Is(err, ErrBadOptions) {
		t.Errorf(`ParseMethod("3") = %v, want ErrBadOptions`, err)
	}
	if _, err := ParsePolarity("sideways"); !errors.Is(err, ErrBadOptions) {
		t.Errorf(`ParsePolarity("sideways") = %v, want ErrBadOptions`, err)
	}
}
