package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
)

// Policy is the server-side clamp on what a request may ask for. Every
// per-request knob arrives in an X-Rmsynd-* header from an untrusted
// client; the grant is min(requested, ceiling), never the raw request.
// The wall clock is the one policy an operator sets (rmsynd's
// -default-timeout and -max-timeout); the budget ceilings below are
// constants. A zero MaxTimeout means no wall-clock ceiling. A request's
// worker count is clamped to the pool size.
type Policy struct {
	DefaultTimeout time.Duration // granted when the client asks for none
	MaxTimeout     time.Duration // hard per-request wall-clock ceiling
}

// The ceilings every grant is clamped to: budgets roughly where the
// bench suite's heavy circuits live, a 10ms wall-clock floor, 16x retry
// at most.
const (
	minTimeout     = 10 * time.Millisecond // grants are raised to this floor
	maxBDDNodes    = 4_000_000             // ceiling on X-Rmsynd-Max-Bdd-Nodes
	maxOFDDNodes   = 4_000_000             // ceiling on X-Rmsynd-Max-Ofdd-Nodes
	maxCubes       = 10_000_000            // ceiling on X-Rmsynd-Max-Cubes
	maxSteps       = 2_000_000_000         // ceiling on X-Rmsynd-Max-Steps
	maxRetryFactor = 16                    // clamp on X-Rmsynd-Retry-Factor
)

// DefaultPolicy returns the service defaults: 30s granted by default,
// 2min ceiling.
func DefaultPolicy() Policy {
	return Policy{
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
	}
}

// grant is the budget actually given to one request after policy
// clamping — echoed back in X-Rmsynd-Granted-* response headers so the
// client can see what it ran under (headers, not body: the body must be
// byte-identical between a cache miss and its hits, the grant may not).
type grant struct {
	Timeout     time.Duration
	BDDNodes    int
	OFDDNodes   int
	Cubes       int64
	Steps       int64
	Workers     int
	RetryFactor float64

	Method   core.Method
	Polarity core.Polarity
	Basis    core.Basis
	NoCache  bool
}

// optErr is a 400 bad_option failure with the offending header named.
type optErr struct {
	header string
	msg    string
}

func (e *optErr) Error() string { return fmt.Sprintf("%s: %s", e.header, e.msg) }

// parseGrant derives a request's grant from its headers under the
// policy. Invalid values (unparseable, negative, NaN) are a hard 400 —
// silently "fixing" garbage would hide client bugs; absurd-but-valid
// values are clamped, which is the policy's job.
func parseGrant(h http.Header, pol Policy, poolSize int) (grant, error) {
	g := grant{
		Method:   core.MethodCube,
		Polarity: core.PolarityGreedy,
	}

	// Wall clock.
	g.Timeout = pol.DefaultTimeout
	if v := h.Get("X-Rmsynd-Timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return g, &optErr{"X-Rmsynd-Timeout", "want a Go duration like 500ms or 30s"}
		}
		if d <= 0 {
			return g, &optErr{"X-Rmsynd-Timeout", "must be positive"}
		}
		g.Timeout = d
	}
	if pol.MaxTimeout > 0 && g.Timeout > pol.MaxTimeout {
		g.Timeout = pol.MaxTimeout
	}
	if g.Timeout < minTimeout {
		g.Timeout = minTimeout
	}

	// Node/cube/step budgets: absent or 0 means "the ceiling".
	var err error
	if g.BDDNodes, err = intBudget(h, "X-Rmsynd-Max-Bdd-Nodes", maxBDDNodes); err != nil {
		return g, err
	}
	if g.OFDDNodes, err = intBudget(h, "X-Rmsynd-Max-Ofdd-Nodes", maxOFDDNodes); err != nil {
		return g, err
	}
	if g.Cubes, err = int64Budget(h, "X-Rmsynd-Max-Cubes", maxCubes); err != nil {
		return g, err
	}
	if g.Steps, err = int64Budget(h, "X-Rmsynd-Max-Steps", maxSteps); err != nil {
		return g, err
	}

	// Worker share of the global pool.
	g.Workers = poolSize
	if v := h.Get("X-Rmsynd-Workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return g, &optErr{"X-Rmsynd-Workers", "want a non-negative integer"}
		}
		if n > 0 && n < poolSize {
			g.Workers = n
		}
	}
	if g.Workers < 1 {
		g.Workers = 1
	}

	// Retry ladder scale.
	g.RetryFactor = core.DefaultOptions().RetryFactor
	if v := h.Get("X-Rmsynd-Retry-Factor"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return g, &optErr{"X-Rmsynd-Retry-Factor", "want a finite non-negative number"}
		}
		g.RetryFactor = f
	}
	if g.RetryFactor > maxRetryFactor {
		g.RetryFactor = maxRetryFactor
	}

	// Flow selection.
	if g.Method, err = core.ParseMethod(h.Get("X-Rmsynd-Method")); err != nil {
		return g, &optErr{"X-Rmsynd-Method", "want cube|ofdd (or 1|2)"}
	}
	if g.Polarity, err = core.ParsePolarity(h.Get("X-Rmsynd-Polarity")); err != nil {
		return g, &optErr{"X-Rmsynd-Polarity", "want positive|greedy|exhaustive"}
	}

	g.Basis = core.DefaultOptions().Basis
	if v := h.Get("X-Rmsynd-Basis"); v != "" {
		b, berr := core.ParseBasis(v)
		if berr != nil {
			return g, &optErr{"X-Rmsynd-Basis", "want auto|xor|sop|race"}
		}
		g.Basis = b
	}

	switch v := h.Get("X-Rmsynd-No-Cache"); v {
	case "", "0", "false":
	case "1", "true":
		g.NoCache = true
	default:
		return g, &optErr{"X-Rmsynd-No-Cache", "want 1|true or 0|false"}
	}
	return g, nil
}

func intBudget(h http.Header, header string, ceiling int) (int, error) {
	v := h.Get(header)
	if v == "" {
		return ceiling, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, &optErr{header, "want a non-negative integer"}
	}
	if n == 0 {
		return ceiling, nil
	}
	if n > ceiling {
		return ceiling, nil
	}
	return n, nil
}

func int64Budget(h http.Header, header string, ceiling int64) (int64, error) {
	v := h.Get(header)
	if v == "" {
		return ceiling, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, &optErr{header, "want a non-negative integer"}
	}
	if n == 0 {
		return ceiling, nil
	}
	if n > ceiling {
		return ceiling, nil
	}
	return n, nil
}

// coreOptions assembles the synthesis configuration for one grant.
func (g grant) coreOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Method = g.Method
	opt.Polarity = g.Polarity
	opt.Basis = g.Basis
	opt.MaxBDDNodes = g.BDDNodes
	opt.MaxOFDDNodes = g.OFDDNodes
	opt.MaxCubes = g.Cubes
	opt.MaxSteps = g.Steps
	opt.Workers = g.Workers
	opt.RetryFactor = g.RetryFactor
	return opt
}

// flowKey fingerprints the parts of the grant that determine the result
// function-for-function: the flow, not the budgets. Budgeted runs that
// degrade are never cached, so two grants differing only in budgets may
// share a cache entry; ones differing in flow may not (Kushch: record
// which basis/flow produced each cached form).
func (g grant) flowKey() string {
	return fmt.Sprintf("m%d|p%d|B%d", g.Method, g.Polarity, g.Basis)
}

// flightKey fingerprints everything that affects what a leader computes,
// budgets included: a request must not coalesce onto a flight running
// under tighter budgets than its own (it could be handed a degradation
// ladder it never asked for).
func (g grant) flightKey() string {
	return fmt.Sprintf("%s|t%d|b%d|o%d|c%d|s%d|r%g",
		g.flowKey(), g.Timeout, g.BDDNodes, g.OFDDNodes, g.Cubes, g.Steps, g.RetryFactor)
}
