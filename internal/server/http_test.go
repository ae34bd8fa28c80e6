//go:build linux

package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"qtls/internal/minitls"
)

var requestWantsCloseCases = []struct {
	name string
	req  string
	want bool
}{
	{"no headers", "GET / HTTP/1.1", false},
	{"keep-alive", "GET / HTTP/1.1\r\nConnection: keep-alive", false},
	{"plain close", "GET / HTTP/1.1\r\nConnection: close", true},
	{"mixed case", "GET / HTTP/1.1\r\nCONNECTION: Close", true},
	{"surrounding space", "GET / HTTP/1.1\r\nConnection :   close  ", true},
	{"multiple tokens", "GET / HTTP/1.1\r\nConnection: keep-alive, close", true},
	{"multiple tokens no close", "GET / HTTP/1.1\r\nConnection: keep-alive, upgrade", false},
	{"token is a substring", "GET / HTTP/1.1\r\nConnection: close-ish", false},
	{"missing value", "GET / HTTP/1.1\r\nConnection:", false},
	{"second connection header", "GET / HTTP/1.1\r\nConnection: keep-alive\r\nConnection: close", true},
	{"folded continuation", "GET / HTTP/1.1\r\nConnection: keep-alive,\r\n close", true},
	{"folded with tab", "GET / HTTP/1.1\r\nConnection: upgrade,\r\n\tclose", true},
	{"folded other header", "GET / HTTP/1.1\r\nX-Note: first,\r\n close\r\nConnection: keep-alive", false},
	{"close in other header", "GET / HTTP/1.1\r\nX-Mode: close", false},
	{"prefixed header name", "GET / HTTP/1.1\r\nX-Connection: close", false},
	{"lower name upper value", "GET / HTTP/1.1\r\nconnection:   CLOSE", true},
	{"close in request line", "GET /close HTTP/1.1\r\nHost: x", false},
	{"request line with colon", "GET /a:close HTTP/1.1\r\nHost: x", false},
}

func TestRequestWantsClose(t *testing.T) {
	for _, tc := range requestWantsCloseCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := requestWantsClose([]byte(tc.req)); got != tc.want {
				t.Fatalf("requestWantsClose(%q) = %v, want %v", tc.req, got, tc.want)
			}
		})
	}
}

func TestASCIIEqualFold(t *testing.T) {
	cases := []struct {
		b, s string
		want bool
	}{
		{"connection", "connection", true},
		{"CONNECTION", "connection", true},
		{"CoNnEcTiOn", "connection", true},
		{"connectio", "connection", false},
		{"connectionn", "connection", false},
		{"", "", true},
		// Folding is one-directional: the reference string must already be
		// lower-case, and non-ASCII bytes must match exactly.
		{"close\x80", "close\x80", true},
	}
	for _, tc := range cases {
		if got := asciiEqualFold([]byte(tc.b), tc.s); got != tc.want {
			t.Errorf("asciiEqualFold(%q, %q) = %v, want %v", tc.b, tc.s, got, tc.want)
		}
	}
}

// requestWantsCloseSplit is the Split-based requestWantsClose the
// line-by-line scan replaced, kept as the fuzzing oracle.
func requestWantsCloseSplit(req []byte) bool {
	lines := bytes.Split(req, []byte("\r\n"))
	inConnection := false
	for i, line := range lines {
		if i == 0 {
			continue // request line
		}
		if len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			if inConnection && connectionValueHasCloseSplit(line) {
				return true
			}
			continue
		}
		inConnection = false
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		if !asciiEqualFold(bytes.TrimSpace(line[:colon]), "connection") {
			continue
		}
		inConnection = true
		if connectionValueHasCloseSplit(line[colon+1:]) {
			return true
		}
	}
	return false
}

func connectionValueHasCloseSplit(v []byte) bool {
	for _, tok := range bytes.Split(v, []byte{','}) {
		if asciiEqualFold(bytes.TrimSpace(tok), "close") {
			return true
		}
	}
	return false
}

// FuzzRequestWantsClose checks the request-head scans that take client
// bytes against the implementations they replaced: requestWantsClose
// against the Split-based oracle, and requestLine against the first two
// bytes.Fields of the request line.
func FuzzRequestWantsClose(f *testing.F) {
	for _, tc := range requestWantsCloseCases {
		f.Add([]byte(tc.req))
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		if got, want := requestWantsClose(req), requestWantsCloseSplit(req); got != want {
			t.Fatalf("requestWantsClose(%q) = %v, the Split-based scan says %v", req, got, want)
		}
		line := req
		if i := bytes.IndexByte(line, '\r'); i >= 0 {
			line = line[:i]
		}
		fields := append(bytes.Fields(line), nil, nil)
		if method, target := requestLine(req); !bytes.Equal(method, fields[0]) || !bytes.Equal(target, fields[1]) {
			t.Fatalf("requestLine(%q) = %q, %q; bytes.Fields says %q, %q", req, method, target, fields[0], fields[1])
		}
	})
}

// swapTransport lets a test switch where a TLS connection writes: the
// handshake goes over a pipe, the responses after it nowhere.
type swapTransport struct {
	io.Reader
	w io.Writer
}

func (s *swapTransport) Write(p []byte) (int, error) { return s.w.Write(p) }

// TestServeRequestAllocations: parsing a request and starting its
// response allocate one object beyond the TLS write itself — the path
// string the Handler receives. The response header is built in the
// conn's own array.
func TestServeRequestAllocations(t *testing.T) {
	srvPipe, cliPipe := net.Pipe()
	defer srvPipe.Close()
	defer cliPipe.Close()
	tr := &swapTransport{Reader: srvPipe, w: srvPipe}
	c := new(conn)
	srv := &c.tls
	srv.Init(tr, &minitls.Config{
		Identity:     identity(t),
		CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
	}, true)
	done := make(chan error, 1)
	go func() { done <- minitls.ClientConn(cliPipe, &minitls.Config{}).Handshake() }()
	if err := srv.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tr.w = io.Discard

	body := []byte("hello\n")
	w := &Worker{handler: func(string) ([]byte, bool) { return body, true }}
	req := []byte("GET /hello?x=1 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, upgrade")
	hdr := []byte("HTTP/1.1 200 OK\r\nContent-Length: 6\r\nConnection: keep-alive\r\n\r\n")
	write := testing.AllocsPerRun(100, func() {
		if _, err := srv.Writev(hdr, body); err != nil {
			t.Fatal(err)
		}
	})
	serve := testing.AllocsPerRun(100, func() {
		w.serveRequest(c, req)
		if c.closed || c.closeAfterWrite || len(c.writeHdr) != 0 {
			t.Fatal("the response did not complete on a kept-alive connection")
		}
	})
	if serve-write > 1 {
		t.Fatalf("serveRequest allocates %v objects beyond its TLS write (%v), want at most 1", serve-write, write)
	}
}

// TestRequestHeaderSplitAcrossRecords: the header terminator is found
// wherever the records cut it. One keep-alive connection sends requests
// whose bytes arrive in records of 1 to 5 bytes — one a byte per record,
// so the terminator is split across records at every offset — and then
// two requests in one record, the second found in the buffer before any
// further read. Each gets its response.
func TestRequestHeaderSplitAcrossRecords(t *testing.T) {
	srv, _ := startServer(t, ConfigSW, 1, nil)
	raw, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second))
	tc := minitls.ClientConn(raw, &minitls.Config{})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	expect := func(size int) {
		t.Helper()
		want := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n", size)
		body, _ := SizedBodyHandler(size)(fmt.Sprintf("/%d", size))
		got := make([]byte, len(want)+size)
		if _, err := io.ReadFull(readerFor(tc), got); err != nil || string(got) != want+string(body) {
			t.Fatalf("response for /%d: %q, %v", size, got, err)
		}
	}
	for cut := 1; cut <= 5; cut++ {
		req := []byte(fmt.Sprintf("GET /%d HTTP/1.1\r\nHost: x\r\n\r\n", cut))
		for off := 0; off < len(req); off += cut {
			if _, err := tc.Write(req[off:min(off+cut, len(req))]); err != nil {
				t.Fatal(err)
			}
		}
		expect(cut)
	}
	if _, err := tc.Write([]byte("GET /6 HTTP/1.1\r\nHost: x\r\n\r\nGET /7 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	expect(6)
	expect(7)
	if st := srv.Stats(); st.Requests != 7 || st.Errors != 0 {
		t.Fatalf("server stats %+v: want 7 requests, no errors", st)
	}
}
