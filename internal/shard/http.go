package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// PathPartials is the HTTP route of the worker side of the shard RPC; the
// serving layer registers a handler for it and Client posts to it.
const PathPartials = "/internal/shard/partials"

// TraceHeader carries the coordinator's trace ID on shard RPCs, so a
// worker's trace ring can be joined against the coordinator's
// scatter-gather tree (the serving layer sets the same header on every
// response it makes).
const TraceHeader = "X-DBS-Trace"

// Client is an HTTP Shard: the same RPC a Local serves in-process,
// posted as JSON to another dbsserve instance running with -shard-of.
type Client struct {
	name string
	base string
	hc   *http.Client
}

// NewClient builds an HTTP shard named name at baseURL (scheme://host
// [:port]; any trailing slash is dropped). hc defaults to a plain
// http.Client — timeouts come from the request context, which carries
// the coordinator's deadline.
func NewClient(name, baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{name: name, base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// Name implements Shard.
func (c *Client) Name() string { return c.name }

// Partials implements Shard over HTTP.
func (c *Client) Partials(ctx context.Context, req *PartialsRequest) (*PartialsResponse, error) {
	resp := new(PartialsResponse)
	if err := c.post(ctx, PathPartials, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// post sends one JSON RPC. Any transport error, non-200 status, or
// undecodable body is returned as a plain error for the coordinator's
// rpc wrapper to classify; the coordinator's trace ID is propagated in
// TraceHeader so the worker can stitch its span tree under it.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("encoding %s request: %v", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := obs.FromContext(ctx).ID(); id != "" {
		hreq.Header.Set(TraceHeader, id)
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		var envelope struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &envelope) == nil && envelope.Error != "" {
			return fmt.Errorf("%s: status %d: %s", path, hresp.StatusCode, envelope.Error)
		}
		return fmt.Errorf("%s: status %d", path, hresp.StatusCode)
	}
	dec := json.NewDecoder(hresp.Body)
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("decoding %s response: %v", path, err)
	}
	return nil
}
