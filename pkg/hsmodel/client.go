// Client: the Go consumer of the hsserve wire API. One client speaks both
// route families: unscoped it targets the legacy /v1 routes (the reserved
// default entry), scoped with WithModelID or Model(id) it targets the
// model-addressed /v2 routes — same wire types either way, so switching a
// caller to multi-model serving is one accessor call, not a rewrite. A model
// id is an exact registry key or the "app:<name>" alias, which the server
// resolves to the entry scoped to that application, else to its wildcard
// entry.
package hsmodel

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// StatusError is the typed form of a non-2xx API answer: the HTTP status
// plus the server's ErrorResponse message.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("hsmodel: server answered %d: %s", e.Code, e.Message)
}

// Client talks to one hsserve instance. The zero value is not usable;
// create with NewClient. Clients are safe for concurrent use and cheap to
// scope per model with Model.
type Client struct {
	base  string
	model string // "" = the /v1 default-entry routes
	hc    *http.Client
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithModelID scopes the client to one registry entry: every request rides
// the model-addressed /v2 routes. An empty id restores the /v1 default
// routes.
func WithModelID(id string) ClientOption {
	return func(c *Client) { c.model = id }
}

// WithHTTPClient replaces the underlying *http.Client (timeouts, transport
// reuse across load generators).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Model returns a copy of the client scoped to the given registry entry;
// the receiver is unchanged. An empty id scopes back to the /v1 routes.
func (c *Client) Model(id string) *Client {
	scoped := *c
	scoped.model = id
	return &scoped
}

// ModelID reports the registry entry the client is scoped to ("" = the v1
// default routes).
func (c *Client) ModelID() string { return c.model }

// route maps a logical endpoint suffix onto the scoped route family.
func (c *Client) route(suffix string) string {
	if c.model == "" {
		return c.base + "/v1" + suffix
	}
	return c.base + "/v2/models/" + url.PathEscape(c.model) + suffix
}

// do runs one JSON round trip; out may be nil for status-only requests.
func (c *Client) do(ctx context.Context, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("hsmodel: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er ErrorResponse
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &StatusError{Code: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("hsmodel: decoding response: %w", err)
	}
	return nil
}

// Predict answers one PredictRequest on the scoped model.
func (c *Client) Predict(ctx context.Context, req PredictRequest) (PredictResponse, error) {
	var out PredictResponse
	err := c.do(ctx, http.MethodPost, c.route("/predict"), req, &out)
	return out, err
}

// PredictBatch answers many predictions in one round trip on the scoped
// model.
func (c *Client) PredictBatch(ctx context.Context, req BatchPredictRequest) (BatchPredictResponse, error) {
	var out BatchPredictResponse
	err := c.do(ctx, http.MethodPost, c.route("/predict:batch"), req, &out)
	return out, err
}

// Samples feeds profiles to the server: registry-wide fan-out on the v1
// routes, entry-scoped (or fan_out-controlled) on a model-scoped client.
func (c *Client) Samples(ctx context.Context, req SamplesRequest) (SamplesResponse, error) {
	var out SamplesResponse
	err := c.do(ctx, http.MethodPost, c.route("/samples"), req, &out)
	return out, err
}

// ModelInfo fetches the scoped model's provenance.
func (c *Client) ModelInfo(ctx context.Context) (ModelInfo, error) {
	var out ModelInfo
	err := c.do(ctx, http.MethodGet, c.route("/model"), nil, &out)
	return out, err
}

// Models lists the registry: every entry plus the registry-wide load state.
func (c *Client) Models(ctx context.Context) (RegistryStatus, error) {
	var out RegistryStatus
	err := c.do(ctx, http.MethodGet, c.base+"/v2/models", nil, &out)
	return out, err
}

// RegisterModel registers a new entry and returns its status.
func (c *Client) RegisterModel(ctx context.Context, req RegisterRequest) (ModelStatus, error) {
	var out ModelStatus
	err := c.do(ctx, http.MethodPost, c.base+"/v2/models", req, &out)
	return out, err
}

// UnregisterModel removes (and drains) the entry registered under id.
func (c *Client) UnregisterModel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, c.base+"/v2/models/"+url.PathEscape(id), nil, nil)
}
