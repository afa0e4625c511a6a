package world

import (
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
)

// outcome is what a client can observe of one GET.
type outcome struct {
	transportErr bool
	status       int
	contentType  string
	more         string // X-More
	late         string // X-Late, set by a handler after its first Write
	body         string
	readErr      error
}

func observe(t *testing.T, client *http.Client, url string) outcome {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		return outcome{transportErr: true}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("GET %s: unexpected read error %v", url, err)
	}
	return outcome{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		more:        resp.Header.Get("X-More"),
		late:        resp.Header.Get("X-Late"),
		body:        string(body),
		readErr:     err,
	}
}

// TestHandlerTransportMatchesLoopbackServer serves each handler through
// HandlerTransport and through a real loopback server, and checks that the
// client sees the same thing both ways — the property that keeps the
// inproc backend byte-identical to the http backend.
func TestHandlerTransportMatchesLoopbackServer(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
		want    outcome
	}{
		{
			name: "implicit 200, sniffed text",
			handler: func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "hello")
			},
			want: outcome{status: 200, contentType: "text/plain; charset=utf-8", body: "hello"},
		},
		{
			name:    "implicit 200, no body",
			handler: func(w http.ResponseWriter, r *http.Request) {},
			want:    outcome{status: 200},
		},
		{
			name: "explicit status and Content-Type",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusNotFound)
				io.WriteString(w, "{}")
			},
			want: outcome{status: 404, contentType: "application/json", body: "{}"},
		},
		{
			name: "explicit status, sniffed html",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte("<html><body>down</body></html>"))
			},
			want: outcome{status: 503, contentType: "text/html; charset=utf-8", body: "<html><body>down</body></html>"},
		},
		{
			name: "first WriteHeader wins",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusCreated)
				w.WriteHeader(http.StatusInternalServerError)
			},
			want: outcome{status: 201},
		},
		{
			name: "X-More page header",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-More", "1")
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, "[]\n")
			},
			want: outcome{status: 200, contentType: "application/json", more: "1", body: "[]\n"},
		},
		{
			name: "header set after the first Write is ignored",
			handler: func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "a")
				w.Header().Set("X-Late", "1")
				w.WriteHeader(http.StatusTeapot)
				io.WriteString(w, "b")
			},
			want: outcome{status: 200, contentType: "text/plain; charset=utf-8", body: "ab"},
		},
		{
			name: "http.Error",
			handler: func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "boom", http.StatusBadGateway)
			},
			want: outcome{status: 502, contentType: "text/plain; charset=utf-8", body: "boom\n"},
		},
		{
			name: "ErrAbortHandler is a transport error",
			handler: func(w http.ResponseWriter, r *http.Request) {
				panic(http.ErrAbortHandler)
			},
			want: outcome{transportErr: true},
		},
		{
			name: "over-declared Content-Length fails the read",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Length", "100")
				io.WriteString(w, "only ten b")
			},
			want: outcome{status: 200, contentType: "application/json", body: "only ten b", readErr: io.ErrUnexpectedEOF},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewHandlerTransport()
			rt.Handle("a.inproc", tc.handler)
			inproc := observe(t, &http.Client{Transport: rt}, "http://a.inproc/x")

			srv := httptest.NewUnstartedServer(tc.handler)
			// The superfluous-WriteHeader case makes the server log.
			srv.Config.ErrorLog = log.New(io.Discard, "", 0)
			srv.Start()
			defer srv.Close()
			loopback := observe(t, srv.Client(), srv.URL+"/x")

			if loopback != tc.want {
				t.Fatalf("loopback server: got %+v, want %+v", loopback, tc.want)
			}
			if inproc != loopback {
				t.Fatalf("HandlerTransport diverges from the loopback server:\ninproc:   %+v\nloopback: %+v", inproc, loopback)
			}
		})
	}
}
