package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsmodel/internal/core"
	"hsmodel/internal/serve"
	"hsmodel/pkg/hsmodel"
)

// server is the system under test: serve.New with hsserve's default
// serve.Config, wrapped in Handler() on a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

func startServer(tr *core.Trainer, t *tracer) (*server, error) {
	srv, err := serve.New(serve.Config{Trainer: tr})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: t.handler(srv.Handler())},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, waits for the serve loop to exit, and drains
// the batcher.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
}

// client is one load-generator connection: an hsmodel.Client addressing
// the default model over the v2 routes through a transport limited to a
// single keep-alive connection.
type client struct {
	*hsmodel.Client
	tr *http.Transport
}

func (s *server) client(t *tracer) client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = tr
	if t != nil {
		rt = &tracedTransport{next: tr, t: t}
	}
	c := hsmodel.NewClient(s.base, hsmodel.WithHTTPClient(&http.Client{Transport: rt, Timeout: 30 * time.Second}))
	return client{Client: c.Model(hsmodel.DefaultModelID), tr: tr}
}

func (c client) close() { c.tr.CloseIdleConnections() }

// scrape reads the server's /metrics page in process and returns the
// unlabelled samples by series name.
func (s *server) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

type callKey struct{}

// withCall tags ctx with the client-call span a request belongs to.
func withCall(ctx context.Context, id int64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, callKey{}, id)
}

// spanHeader carries the transport span id to the server-side handler span.
const spanHeader = "X-Perfbench-Span"

// tracedTransport records an "http" span per request, from the moment the
// client hands the request to the transport until the response body is
// fully read. Its parent is the client call; the handler span is its child.
type tracedTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := tt.t.newID()
	parent, _ := req.Context().Value(callKey{}).(int64)
	start := time.Now()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		tt.t.add(span{ID: id, Parent: parent, Name: "http", Start: start, End: time.Now(), N: req.ContentLength})
	}}
	return resp, nil
}

// timedBody calls done once, when the body reaches EOF or is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if errors.Is(err, io.EOF) {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// captureEvery is the sampling stride of request/response bodies kept for
// the wire-codec replay.
const captureEvery = 8

// exchange is one captured request/response body pair.
type exchange struct {
	kind      string // "predict" or "batch"
	req, resp []byte
}

// handler wraps the service handler: each request gets a "handler.<kind>"
// span covering ServeHTTP, parented to the client's transport span, and
// every captureEvery-th predict and batch exchange is kept for the codec
// replay.
func (t *tracer) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	seen := map[string]*atomic.Int64{"batch": new(atomic.Int64), "predict": new(atomic.Int64)}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := routeKind(r.URL.Path)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		var body []byte
		var cw *captureWriter
		if n := seen[kind]; n != nil && (n.Add(1)-1)%captureEvery == 0 {
			if b, err := io.ReadAll(r.Body); err == nil {
				body = b
				r.Body = io.NopCloser(bytes.NewReader(b))
				cw = &captureWriter{ResponseWriter: w}
				w = cw
			}
		}
		next.ServeHTTP(w, r)
		t.add(span{Parent: parent, Name: "handler." + kind, Start: start, End: time.Now()})
		if cw != nil {
			t.keep(exchange{kind: kind, req: body, resp: cw.buf.Bytes()})
		}
	})
}

func routeKind(path string) string {
	switch {
	case strings.HasSuffix(path, "/predict:batch"):
		return "batch"
	case strings.HasSuffix(path, "/predict"):
		return "predict"
	case strings.HasSuffix(path, "/samples"):
		return "samples"
	}
	return ""
}

type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

// keep stores a captured exchange beside the spans for the codec replay.
func (t *tracer) keep(e exchange) {
	t.mu.Lock()
	t.exchanges = append(t.exchanges, e)
	t.mu.Unlock()
}

// takeExchanges returns and forgets the captured exchanges.
func (t *tracer) takeExchanges() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.exchanges
	t.exchanges = nil
	return out
}

// replayReps is how many times each captured body is re-decoded and
// re-encoded; the per-body median is kept.
const replayReps = 5

// wireCost replays the server's codec work on captured predict bodies: the
// strict decode (unknown fields rejected, as the server decodes) plus
// ShardInputs on every item, and the response encode through a
// json.Encoder, as the server writes it. It returns the median per-request
// decode and encode times in microseconds.
func wireCost(ex []exchange) (decodeUS, encodeUS float64, err error) {
	var dec, enc []float64
	for _, e := range ex {
		var d, c []float64
		for r := 0; r < replayReps; r++ {
			start := time.Now()
			if err := decodeRequest(e); err != nil {
				return 0, 0, err
			}
			d = append(d, us(time.Since(start)))
			resp, err := responseValue(e)
			if err != nil {
				return 0, 0, err
			}
			start = time.Now()
			if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
				return 0, 0, err
			}
			c = append(c, us(time.Since(start)))
		}
		dec = append(dec, median(d))
		enc = append(enc, median(c))
	}
	if len(dec) == 0 {
		return 0, 0, errors.New("no predict exchanges captured")
	}
	return median(dec), median(enc), nil
}

func strictDecode(body []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(body))
	d.DisallowUnknownFields()
	return d.Decode(v)
}

func decodeRequest(e exchange) error {
	if e.kind == "predict" {
		var req hsmodel.PredictRequest
		if err := strictDecode(e.req, &req); err != nil {
			return err
		}
		_, _, err := req.ShardInputs()
		return err
	}
	var req hsmodel.BatchPredictRequest
	if err := strictDecode(e.req, &req); err != nil {
		return err
	}
	for _, item := range req.Requests {
		if _, _, err := item.ShardInputs(); err != nil {
			return err
		}
	}
	return nil
}

func responseValue(e exchange) (any, error) {
	var v any
	if e.kind == "predict" {
		v = new(hsmodel.PredictResponse)
	} else {
		v = new(hsmodel.BatchPredictResponse)
	}
	if err := json.Unmarshal(e.resp, v); err != nil {
		return nil, fmt.Errorf("captured %s response: %w", e.kind, err)
	}
	return v, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
