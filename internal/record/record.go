// Package record is a software record stream over exported keys: the
// write direction of a finished minitls handshake
// (minitls.Conn.ExportWriteKeys), driven outside the Conn. A Stream
// fragments each write at minitls.MaxPlaintext, seals every fragment
// through a minitls.RecordCodec into a pooled wire buffer, and hands the
// sealed record to a Sink. Sequence numbers continue from the exported
// key material, so the peer's record layer keeps reading the stream.
//
// The live stack does not use it: every response's records are sealed by
// minitls itself, each seal one cipher op through the crypto provider
// (the QAT Engine's path). The live-stack benchmark's
// record.stream_seal_16k probe measures the seal path through it.
package record

import (
	"crypto/rand"

	"qtls/internal/minitls"
)

// Sink receives sealed wire records, in sequence order. The slice is only
// valid during the call: its wire buffer returns to the pool after.
type Sink interface {
	WriteRecord(rec []byte) error
}

// Config configures an Engine. It has no settings.
type Config struct{}

// Engine builds streams.
type Engine struct{}

// New builds an engine.
func New(Config) *Engine { return &Engine{} }

// Stream is the write direction of one connection.
type Stream struct {
	codec minitls.RecordCodec
	sink  Sink
	seq   uint64
	err   error // sticky seal or sink error
}

// NewStream builds a stream from exported key material; its first record
// is sealed under km.Seq.
func (e *Engine) NewStream(km minitls.KeyMaterial, sink Sink) (*Stream, error) {
	codec, err := minitls.NewRecordCodec(km)
	if err != nil {
		return nil, err
	}
	return &Stream{codec: codec, sink: sink, seq: km.Seq}, nil
}

// Write seals p as application-data records and hands each to the sink
// before sealing the next. A seal or sink error is sticky: it fails every
// later Write.
func (s *Stream) Write(p []byte) error {
	for off := 0; off < len(p) && s.err == nil; off += minitls.MaxPlaintext {
		end := min(off+minitls.MaxPlaintext, len(p))
		w, err := s.codec.Seal(s.seq, minitls.RecordTypeApplicationData, p[off:end], rand.Reader)
		if err != nil {
			s.err = err
			break
		}
		s.seq++
		s.err = s.sink.WriteRecord(w.Bytes())
		minitls.PutWireBuf(w)
	}
	return s.err
}
