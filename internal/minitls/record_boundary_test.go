package minitls

import (
	"bytes"
	"crypto/rand"
	"io"
	"net"
	"testing"
)

// recordCountingRW counts the TLS records a Conn emits: writeSealed issues
// exactly one transport Write per record, so counting Write calls after
// the handshake counts records.
type recordCountingRW struct {
	io.ReadWriter
	records int
	bytes   int
}

func (r *recordCountingRW) Write(p []byte) (int, error) {
	r.records++
	r.bytes += len(p)
	return r.ReadWriter.Write(p)
}

// recordCuts returns the plaintext lengths of the records a write of total
// bytes is cut into when its first record holds at most first bytes and
// every later one MaxPlaintext.
func recordCuts(total, first int) []int {
	var cuts []int
	for limit := first; total > 0; limit = MaxPlaintext {
		n := min(total, limit)
		cuts = append(cuts, n)
		total -= n
	}
	return cuts
}

// TestWriteFragmentationBoundaries pins the MaxPlaintext fragmentation
// contract on the first write of a connection, which opens a turn: a
// payload of exactly MaxPlaintext is one record, one byte more is two
// (the first of them one TCP segment), and an empty write emits no record
// at all.
func TestWriteFragmentationBoundaries(t *testing.T) {
	rsaID, _ := testIdentities(t)
	first := tcpMSSEstimate - recordHeaderLen - (&cbcProtection{}).overhead()
	cases := []struct {
		name    string
		size    int
		records int
	}{
		{"empty", 0, 0},
		{"one-byte", 1, 1},
		{"exactly-max", MaxPlaintext, 1},
		{"max-plus-one", MaxPlaintext + 1, 2},
		{"two-records-exact", first + MaxPlaintext, 2},
		{"two-max", 2 * MaxPlaintext, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cliT, srvT := net.Pipe()
			t.Cleanup(func() { cliT.Close(); srvT.Close() })
			counting := &recordCountingRW{ReadWriter: srvT}
			server := Server(counting, &Config{
				Identity:     rsaID,
				CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
			})
			client := ClientConn(cliT, &Config{})
			cliErr := make(chan error, 1)
			go func() { cliErr <- client.Handshake() }()
			if err := server.Handshake(); err != nil {
				t.Fatalf("server handshake: %v", err)
			}
			if err := <-cliErr; err != nil {
				t.Fatalf("client handshake: %v", err)
			}

			counting.records = 0
			payload := bytes.Repeat([]byte{'r'}, tc.size)
			done := make(chan error, 1)
			got := make([]byte, tc.size)
			go func() {
				if tc.size == 0 {
					done <- nil
					return
				}
				_, err := io.ReadFull(&connReader{client}, got)
				done <- err
			}()
			n, err := server.Write(payload)
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			if n != tc.size {
				t.Fatalf("write returned %d, want %d", n, tc.size)
			}
			if err := <-done; err != nil {
				t.Fatalf("client read: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("payload mismatch after fragmentation")
			}
			if counting.records != tc.records {
				t.Errorf("wrote %d records for %d bytes, want %d",
					counting.records, tc.size, tc.records)
			}
		})
	}
}

// TestCodecBoundaryRecords exercises the exported RecordCodec at the
// fragment boundaries, including the empty application-data record the
// Conn write path never produces on its own.
func TestCodecBoundaryRecords(t *testing.T) {
	codecs := map[string]KeyMaterial{
		"cbc": {Key: bytes.Repeat([]byte{1}, 16), MACKey: bytes.Repeat([]byte{2}, 20)},
		"gcm": {Key: bytes.Repeat([]byte{3}, 16), IV: bytes.Repeat([]byte{4}, 12)},
	}
	for name, km := range codecs {
		t.Run(name, func(t *testing.T) {
			cd, err := NewRecordCodec(km)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{0, 1, MaxPlaintext} {
				payload := bytes.Repeat([]byte{'x'}, size)
				w, err := cd.Seal(7, RecordTypeApplicationData, payload, rand.Reader)
				if err != nil {
					t.Fatalf("seal %d bytes: %v", size, err)
				}
				wireTyp, body := w.Bytes()[0], w.Bytes()[RecordHeaderLen:]
				if len(body) > size+cd.Overhead() {
					t.Errorf("sealed body %d exceeds payload %d + overhead %d",
						len(body), size, cd.Overhead())
				}
				if len(body) > MaxCiphertext {
					t.Errorf("sealed body %d exceeds MaxCiphertext", len(body))
				}
				// Wrong sequence number must not authenticate (Open works in
				// place, so the failed attempt gets a copy).
				if _, _, err := cd.Open(8, wireTyp, bytes.Clone(body)); err == nil {
					t.Errorf("open under wrong seq succeeded at %d bytes", size)
				}
				typ, plain, err := cd.Open(7, wireTyp, body)
				if err != nil {
					t.Fatalf("open %d bytes: %v", size, err)
				}
				if typ != RecordTypeApplicationData || !bytes.Equal(plain, payload) {
					t.Errorf("roundtrip mismatch at %d bytes", size)
				}
				PutWireBuf(w)
			}
		})
	}
}

// TestExportWriteKeysContinueStream validates the key-export seam: export
// the server's write keys, seal records outside the Conn with continuing
// sequence numbers, and confirm the client reads them and sees an
// externally sealed close-notify as an orderly EOF.
func TestExportWriteKeysContinueStream(t *testing.T) {
	rsaID, _ := testIdentities(t)
	suites := map[string]*Config{
		"tls12-cbc": {Identity: rsaID, CipherSuites: []uint16{TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}},
		"tls13-gcm": {Identity: rsaID, MaxVersion: VersionTLS13},
	}
	for name, srvCfg := range suites {
		t.Run(name, func(t *testing.T) {
			server, client, _ := handshakePair(t, srvCfg, &Config{MaxVersion: srvCfg.MaxVersion})

			if _, err := server.ExportWriteKeys(); err != nil {
				t.Fatalf("export write keys: %v", err)
			}
			km, err := server.ExportWriteKeys()
			if err != nil {
				t.Fatal(err)
			}
			cd, err := NewRecordCodec(km)
			if err != nil {
				t.Fatal(err)
			}
			// Seal two records externally, continuing from the exported seq.
			msgs := [][]byte{[]byte("first external record"), []byte("second external record")}
			readDone := make(chan error, 1)
			var got []byte
			go func() {
				buf := make([]byte, len(msgs[0])+len(msgs[1]))
				_, err := io.ReadFull(&connReader{client}, buf)
				got = buf
				readDone <- err
			}()
			seq := km.Seq
			transport := server.transport
			for _, msg := range msgs {
				w, err := cd.Seal(seq, RecordTypeApplicationData, msg, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				seq++
				if _, err := transport.Write(w.Bytes()); err != nil {
					t.Fatal(err)
				}
				PutWireBuf(w)
			}
			if err := <-readDone; err != nil {
				t.Fatalf("client read: %v", err)
			}
			if !bytes.Equal(got, append(append([]byte(nil), msgs[0]...), msgs[1]...)) {
				t.Fatal("externally sealed records did not decrypt to the original payloads")
			}

			// Close-notify sealed outside the Conn: the client must see an
			// orderly EOF.
			go func() {
				var b [1]byte
				_, err := client.Read(b[:])
				readDone <- err
			}()
			w, err := cd.Seal(seq, RecordTypeAlert, closeNotifyPayload, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := transport.Write(w.Bytes()); err != nil {
				t.Fatal(err)
			}
			PutWireBuf(w)
			if err := <-readDone; err != io.EOF {
				t.Fatalf("client read after external close-notify = %v, want io.EOF", err)
			}
			if !client.CloseNotifyReceived() {
				t.Fatal("client did not register the close-notify")
			}
		})
	}
}
