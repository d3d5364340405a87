package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"ximd/internal/obs"
)

// maxConns is the load generator's connection budget per daemon: the
// whole load comes from one process over at most two connections.
const maxConns = 2

// client is the benchmark's HTTP client for the daemons' public API.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		Proxy:               nil, // loopback only; never route through an environment proxy
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request. body, when non-nil, is sent as JSON; a valid
// span parents the daemon's side of the trace under it (X-Ximd-Trace);
// out, when non-nil, receives a decoded JSON response of any status.
func (c *client) do(ctx context.Context, method, url string, body any, span *obs.Span, out any) (int, http.Header, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc := span.Context(); sc.Valid() {
		req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(sc))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header, err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, resp.Header, fmt.Errorf("%s %s: status %d, bad body: %w", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header, nil
}

// get sends a GET and decodes a JSON response into out (if non-nil).
func (c *client) get(ctx context.Context, url string, out any) (int, error) {
	status, _, err := c.do(ctx, http.MethodGet, url, nil, nil, out)
	return status, err
}

// getBody returns the body of a GET that must answer 200.
func (c *client) getBody(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// fetchTrace returns one trace's spans as a daemon holds them.
func (c *client) fetchTrace(ctx context.Context, base, traceID string) ([]obs.Span, error) {
	b, err := c.getBody(ctx, base+"/v1/traces/"+traceID)
	if err != nil {
		return nil, err
	}
	return obs.ParseTraceNDJSON(b)
}
