// Package client is the rmsynd client: deadline propagation and capped
// exponential backoff with jitter that honors the server's Retry-After.
// It is the client half of the overload contract rmsynd's admission
// layer defines — a server that sheds truthfully deserves a client that
// backs off honestly.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Config sizes one Client. Zero values mean the documented defaults.
type Config struct {
	// BaseURL is the server, e.g. "http://127.0.0.1:8080".
	BaseURL string

	// MaxRetries bounds re-submissions after retryable responses — 429
	// queue_full, 503 draining/queue_timeout, transport errors (default
	// 3; 0 uses the default, negative disables retries).
	MaxRetries int
	// BaseBackoff/MaxBackoff shape the exponential backoff (defaults
	// 200ms and 10s). A server Retry-After raises an attempt's floor —
	// the server knows its queue better than our exponent does.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// Options tunes one Synthesize call.
type Options struct {
	// Timeout is the per-request synthesis deadline: propagated to the
	// server as X-Rmsynd-Timeout and enforced locally on the whole call
	// (retries included) with headroom for transport.
	Timeout time.Duration
	// Format forces ?format=pla|blif instead of server-side sniffing.
	Format string
	// Headers passes extra X-Rmsynd-* grant headers verbatim.
	Headers map[string]string
}

// Result is one successful synthesis response.
type Result struct {
	Body     []byte // rmsynd/v1 response body, exactly as served
	Cache    string // X-Rmsynd-Cache: miss|hit|coalesced|disk
	Attempts int    // submissions across retries
}

// APIError is a structured rmsynd/v1 error response.
type APIError struct {
	Status       int    // HTTP status
	Code         string // rmsynd error code, e.g. "queue_full"
	Message      string
	RetryAfterMS int64
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rmsynd %s (%d): %s", e.Code, e.Status, e.Message)
}

// Client is safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client
}

// New builds a client; Config.BaseURL is required.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: Config.BaseURL is required")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 200 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 10 * time.Second
	}
	// No client-side timeout: deadlines travel by ctx.
	return &Client{cfg: cfg, http: &http.Client{}}, nil
}

// retryable reports whether a failure is worth re-submitting: overload
// and lifecycle responses are; client mistakes and deterministic
// synthesis failures are not.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Code {
		case "queue_full", "queue_timeout", "draining":
			return true
		}
		return false
	}
	// Transport-level failure (connection refused, reset, EOF): the
	// server may be restarting — retry. Context expiry is final.
	return err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// backoff computes the attempt's sleep: capped exponential with full
// jitter, floored by the server's Retry-After when one was given.
func (c *Client) backoff(attempt int, serverMS int64) time.Duration {
	d := c.cfg.BaseBackoff << attempt
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	d = time.Duration(rand.Int64N(int64(d)) + 1) // full jitter in (0, d]
	if server := time.Duration(serverMS) * time.Millisecond; server > d {
		d = server
	}
	return d
}

// Synthesize submits a PLA/BLIF spec and returns the response. The full
// call — every retry — runs inside opt.Timeout plus transport headroom
// (or ctx's deadline, whichever is sooner).
func (c *Client) Synthesize(ctx context.Context, spec []byte, opt Options) (*Result, error) {
	if opt.Timeout > 0 {
		// Headroom: the server needs the whole granted clock, plus the
		// body has to travel both ways.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout+opt.Timeout/4+2*time.Second)
		defer cancel()
	}

	var lastErr error
	for try := 0; try <= c.cfg.MaxRetries; try++ {
		if ctx.Err() != nil {
			break
		}
		res, err := c.post(ctx, spec, opt)
		if err == nil {
			res.Attempts = try + 1
			return res, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
		if try == c.cfg.MaxRetries {
			break
		}
		var serverMS int64
		var ae *APIError
		if errors.As(err, &ae) {
			serverMS = ae.RetryAfterMS
		}
		select {
		case <-time.After(c.backoff(try, serverMS)):
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	if lastErr == nil {
		lastErr = context.Cause(ctx)
	}
	return nil, lastErr
}

// post performs one HTTP submission and decodes a non-200 response
// into an APIError.
func (c *Client) post(ctx context.Context, spec []byte, opt Options) (*Result, error) {
	url := strings.TrimSuffix(c.cfg.BaseURL, "/") + "/v1/synthesize"
	if opt.Format != "" {
		url += "?format=" + opt.Format
	}
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if opt.Timeout > 0 {
		req.Header.Set("X-Rmsynd-Timeout", opt.Timeout.String())
	}
	for k, v := range opt.Headers {
		req.Header.Set(k, v)
	}

	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}

	if resp.StatusCode != http.StatusOK {
		ae := &APIError{Status: resp.StatusCode}
		var eb struct {
			Error struct {
				Code         string `json:"code"`
				Message      string `json:"message"`
				RetryAfterMS int64  `json:"retry_after_ms"`
			} `json:"error"`
		}
		if jerr := json.Unmarshal(body, &eb); jerr == nil {
			ae.Code, ae.Message, ae.RetryAfterMS = eb.Error.Code, eb.Error.Message, eb.Error.RetryAfterMS
		} else {
			ae.Message = strings.TrimSpace(string(body))
		}
		if ae.RetryAfterMS == 0 {
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if sec, perr := strconv.Atoi(ra); perr == nil {
					ae.RetryAfterMS = int64(sec) * 1000
				}
			}
		}
		return nil, ae
	}
	return &Result{Body: body, Cache: resp.Header.Get("X-Rmsynd-Cache")}, nil
}

// Health probes one endpoint path ("/healthz" or "/readyz"); a non-200
// returns the body as the error.
func (c *Client) Health(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, "GET", strings.TrimSuffix(c.cfg.BaseURL, "/")+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// Metrics fetches the server's Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", strings.TrimSuffix(c.cfg.BaseURL, "/")+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: %d", resp.StatusCode)
	}
	return string(body), nil
}
