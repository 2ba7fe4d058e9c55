package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/network"
)

// Schema identifies the service's JSON layout, request and response
// alike; bump on any incompatible change.
const Schema = "rmsynd/v1"

// Flow records which synthesis configuration produced a result, in the
// names the X-Rmsynd-Method, -Polarity and -Basis headers accept.
type Flow struct {
	Method   string `json:"method"`
	Polarity string `json:"polarity"`
	Basis    string `json:"basis"`
	Rules    bool   `json:"rules"`
	Redund   bool   `json:"redund"`
	Merge    bool   `json:"merge"`
}

// Response is the rmsynd/v1 success body. Everything in it is a
// deterministic function of the specification and the flow — never of
// budgets, worker count, or wall clock — so a cache hit can replay the
// miss's bytes verbatim. Volatile per-request facts (cache source,
// elapsed time, the granted budget) travel in X-Rmsynd-* headers.
type Response struct {
	Schema  string `json:"schema"`
	Circuit string `json:"circuit"`
	PIs     int    `json:"pis"`
	POs     int    `json:"pos"`

	// Verified reports the server-side simulation check of the result
	// against the parsed specification (exhaustive up to 16 inputs,
	// random vectors beyond).
	Verified bool `json:"verified"`

	Flow Flow `json:"flow"`

	Gates2   int `json:"gates2"`
	Literals int `json:"literals"`
	XORs     int `json:"xors"`

	// NetworkBLIF is the synthesized multilevel network.
	NetworkBLIF string `json:"network_blif"`

	// Degradations is the graceful-degradation ladder's record for this
	// run — empty for a clean run, truthful for a budgeted one. Degraded
	// results are served but never cached.
	Degradations []core.Degradation `json:"degradations"`

	// Stats is the volatile-stripped rmstats/v1 pipeline report.
	Stats *core.RunStats `json:"stats"`
}

// ErrorBody is the rmsynd/v1 structured error: every non-200 response
// carries one, so a client never has to parse prose to learn what
// happened.
type ErrorBody struct {
	Schema string    `json:"schema"`
	Error  ErrorInfo `json:"error"`
}

// ErrorInfo names the fault. Code is stable vocabulary (see DESIGN.md
// §11's failure taxonomy); Message is human-readable detail.
type ErrorInfo struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Error codes. Each maps to exactly one HTTP status (httpStatus).
const (
	codeBadSpec       = "bad_spec"       // 400: unparseable PLA/BLIF
	codeBadOption     = "bad_option"     // 400: invalid X-Rmsynd-* header
	codeReadTimeout   = "read_timeout"   // 408: body arrived too slowly
	codeSpecTooLarge  = "spec_too_large" // 413: body over the size cap
	codeBadFormat     = "bad_format"     // 415: not recognizably PLA or BLIF
	codeQueueFull     = "queue_full"     // 429: admission queue full, shed
	codeInternal      = "internal"       // 500: contained panic
	codeNotEquivalent = "not_equivalent" // 500: result failed re-verification
	codeSynthFailed   = "synth_failed"   // 500: synthesis hard error
	codeDraining      = "draining"       // 503: SIGTERM received, not admitting
	codeQueueTimeout  = "queue_timeout"  // 503: budget expired waiting for workers
)

func httpStatus(code string) int {
	switch code {
	case codeBadSpec, codeBadOption:
		return http.StatusBadRequest
	case codeReadTimeout:
		return http.StatusRequestTimeout
	case codeSpecTooLarge:
		return http.StatusRequestEntityTooLarge
	case codeBadFormat:
		return http.StatusUnsupportedMediaType
	case codeQueueFull:
		return http.StatusTooManyRequests
	case codeDraining, codeQueueTimeout:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// reqError is the internal error type the request path threads around:
// a code plus detail, rendered by writeError.
type reqError struct {
	code string
	msg  string
}

func (e *reqError) Error() string { return e.code + ": " + e.msg }

func failCode(code, format string, args ...any) *reqError {
	return &reqError{code: code, msg: fmt.Sprintf(format, args...)}
}

// writeError renders the structured error. 429 and 503 carry a
// Retry-After so well-behaved clients back off instead of hammering;
// the caller supplies it in milliseconds, already jittered — a constant
// Retry-After synchronizes every client the shed wave turned away into
// the next one. The header is the ceiling in whole seconds (its wire
// granularity); the body carries the precise value.
func writeError(w http.ResponseWriter, e *reqError, retryMS int64) {
	status := httpStatus(e.code)
	body := ErrorBody{Schema: Schema, Error: ErrorInfo{Code: e.code, Message: e.msg}}
	if retryMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((retryMS+999)/1000, 10))
		body.Error.RetryAfterMS = retryMS
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		return
	}
	b = append(b, '\n')
	w.Write(b)
}

// buildBody serializes the deterministic success body for one result.
func buildBody(circuit string, spec *network.Network, res *core.Result, g grant, verified bool) ([]byte, error) {
	resp := Response{
		Schema:   Schema,
		Circuit:  circuit,
		PIs:      spec.NumPIs(),
		POs:      spec.NumPOs(),
		Verified: verified,
		Flow: Flow{
			Method:   g.Method.String(),
			Polarity: g.Polarity.String(),
			Basis:    g.Basis.String(),
			Rules:    true,
			Redund:   true,
			Merge:    true,
		},
		Gates2:   res.Stats.Gates2,
		Literals: res.Stats.Lits,
		XORs:     res.Stats.XORs,
	}
	var blif bytes.Buffer
	if err := res.Network.WriteBLIF(&blif); err != nil {
		return nil, err
	}
	resp.NetworkBLIF = blif.String()
	rs := res.RunStats(circuit)
	rs.StripVolatile()
	resp.Stats = rs
	resp.Degradations = rs.Degradations
	if resp.Degradations == nil {
		resp.Degradations = []core.Degradation{}
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
