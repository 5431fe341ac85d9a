// Client: the Go consumer of the hsserve wire API. A client addresses one
// registry entry through the model-addressed /v2/models/{id} routes: the
// reserved DefaultModelID unless Model(id) scopes it to another. A model id
// is an exact registry key or the "app:<name>" alias, which the server
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
	model string // the registry entry every model route addresses
	hc    *http.Client
}

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// WithHTTPClient replaces the underlying *http.Client (timeouts, transport
// reuse across load generators).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8080"), addressing the DefaultModelID entry.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), model: DefaultModelID, hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Model returns a copy of the client scoped to the given registry entry;
// the receiver is unchanged.
func (c *Client) Model(id string) *Client {
	scoped := *c
	scoped.model = id
	return &scoped
}

// route maps a logical endpoint suffix onto the scoped entry's routes.
func (c *Client) route(suffix string) string {
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

// Samples feeds profiles to the scoped model, or with FanOut set to every
// registered model whose application matches each sample.
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
