package world

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Inproc returns the in-process adapter set: every port is the Sim
// itself. Stream and Snap are left nil — the caller wires its poller and
// fetcher (typically over a HandlerTransport from Transport) into those
// slots, so the HTTP-shaped components run unchanged with zero sockets.
func Inproc(s *Sim) World {
	return World{
		Intel:    s,
		Feeds:    s,
		Platform: s,
		Reports:  s,
		Oracle:   s,
	}
}

// HandlerTransport is an http.RoundTripper that dispatches requests to
// in-process handlers keyed on the request's URL host — the same bytes a
// loopback server would produce, without sockets. It lets the crawler's
// fetcher and poller (real net/http clients) run against the simulation
// with no listeners, which is what keeps the inproc backend byte-for-byte
// identical to serving the handlers over TCP.
type HandlerTransport struct {
	hosts map[string]http.Handler
	// Default, when set, handles any host without an explicit entry.
	Default http.Handler
}

// NewHandlerTransport returns an empty transport.
func NewHandlerTransport() *HandlerTransport {
	return &HandlerTransport{hosts: make(map[string]http.Handler)}
}

// Handle routes requests for the given URL host to h.
func (t *HandlerTransport) Handle(host string, h http.Handler) {
	t.hosts[host] = h
}

// RoundTrip serves the request with the matching handler. It mirrors the
// behaviors of a real server and transport that a client can observe, so
// the inproc and http backends — and injected faults — look the same: the
// status defaults to 200 and the first WriteHeader wins; the header
// freezes when the status is written; an unset Content-Type is sniffed
// from the body; a handler panicking with http.ErrAbortHandler becomes a
// transport error (the "connection reset" a net/http client would see);
// and a body shorter than its declared Content-Length fails the read with
// io.ErrUnexpectedEOF instead of silently delivering fewer bytes.
func (t *HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.hosts[req.URL.Host]
	if !ok {
		h = t.Default
	}
	if h == nil {
		return nil, fmt.Errorf("world: no handler for host %q", req.URL.Host)
	}
	rt := &roundTrip{}
	if err := serveAborting(h, &rt.w, req); err != nil {
		return nil, err
	}
	return rt.response(req), nil
}

// serveAborting runs the handler, converting http.ErrAbortHandler panics
// (the standard "drop this connection" signal) into a returned error;
// any other panic propagates.
func serveAborting(h http.Handler, w http.ResponseWriter, req *http.Request) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == http.ErrAbortHandler {
				err = fmt.Errorf("world: %s http://%s%s: connection reset", req.Method, req.URL.Host, req.URL.Path)
				return
			}
			panic(r)
		}
	}()
	h.ServeHTTP(w, req)
	return nil
}

// roundTrip is everything one RoundTrip allocates, in one object: the
// writer the handler serves into, and the response and body the client
// reads.
type roundTrip struct {
	w    responseWriter
	body responseBody
	resp http.Response
}

// response finishes the exchange the way a server does when the handler
// returns, and builds the client's view of it.
func (rt *roundTrip) response(req *http.Request) *http.Response {
	w := &rt.w
	w.WriteHeader(http.StatusOK) // a handler that wrote nothing answered 200
	if w.header == nil {
		w.header = make(http.Header)
	}
	if _, typed := w.header["Content-Type"]; !typed && len(w.body) > 0 && w.header.Get("Transfer-Encoding") == "" {
		w.header.Set("Content-Type", http.DetectContentType(w.body))
	}
	cl := int64(-1)
	if v := w.header.Get("Content-Length"); v != "" {
		if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil && n >= 0 {
			cl = n
		}
	}
	rt.body.r.Reset(w.body)
	rt.body.short = cl > int64(len(w.body))
	rt.resp = http.Response{
		Status:        strconv.Itoa(w.code) + " " + http.StatusText(w.code),
		StatusCode:    w.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          &rt.body,
		ContentLength: cl,
		Request:       req,
	}
	return &rt.resp
}

// responseWriter is the minimal http.ResponseWriter RoundTrip serves
// into. The header freezes at WriteHeader, explicit or implied by the
// first Write. Freezing copies nothing; a Header call after the freeze
// gets a copy, so changes made through it never reach the client, as on a
// real server.
type responseWriter struct {
	header http.Header // sent to the client; frozen once wrote is set
	late   http.Header // what Header returns after the freeze
	code   int
	wrote  bool
	body   []byte
}

func (w *responseWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	if !w.wrote {
		return w.header
	}
	if w.late == nil {
		w.late = w.header.Clone()
	}
	return w.late
}

func (w *responseWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.code, w.wrote = code, true
}

func (w *responseWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *responseWriter) WriteString(s string) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, s...)
	return len(s), nil
}

// responseBody yields the served bytes and then io.EOF — or, when they
// fall short of the declared Content-Length, io.ErrUnexpectedEOF, which
// is what a fixed-length client body does when the peer closes early.
type responseBody struct {
	r     bytes.Reader
	short bool
}

func (b *responseBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF && b.short {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *responseBody) Close() error { return nil }
