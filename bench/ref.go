//go:build linux

package main

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"sync"
)

// The host-speed reference. On the shared 2-core box the benchmark is
// sized for, the same code costs 10–30 % more or less CPU from one minute
// to the next (a pure standard-library loop shows it as clearly as the
// server does), which is wider than any bound worth gating on. So the
// timed metrics are reported at a fixed reference speed: between the
// slices of a measured window, with the clients paused, each generator
// goroutine runs a burst of reference units — standard-library code only,
// so no change to this repository can move it — and every timing of a
// slice is scaled by the speed of the bursts around it.
//
// One unit is the mix a TLS server's CPU goes to: an RSA-2048 signature,
// AES-128-CBC and HMAC-SHA1 over 128 KB, and eight 16 KB trips through a
// pipe for the system-call and copy share. The signature is three quarters
// of it, on purpose: big-number arithmetic is what the host's slow minutes
// hit hardest, and over forty runs a signature-heavy unit tracked all four
// workloads, the bulk transfer included, better than a bulk-only one.

const (
	refBytes      = 128 << 10
	refPipeChunks = 8
)

// refWorker is one goroutine's reference state.
type refWorker struct {
	key    *rsa.PrivateKey
	digest [sha256.Size]byte
	block  cipher.Block
	mac    hash.Hash
	buf    []byte
	r, w   *os.File
}

func newRefWorker() (*refWorker, error) {
	id, ticket, err := loadIdentity()
	if err != nil {
		return nil, err
	}
	key, ok := id.PrivateKey.(*rsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("reference: committed identity is not RSA")
	}
	block, err := aes.NewCipher(ticket[:16])
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	return &refWorker{
		key:    key,
		digest: sha256.Sum256(ticket[:]),
		block:  block,
		mac:    hmac.New(sha1.New, ticket[16:]),
		buf:    make([]byte, refBytes),
		r:      r,
		w:      w,
	}, nil
}

func (rw *refWorker) close() {
	rw.r.Close()
	rw.w.Close()
}

// unit does one reference unit of work.
func (rw *refWorker) unit() error {
	if _, err := rsa.SignPKCS1v15(nil, rw.key, crypto.SHA256, rw.digest[:]); err != nil {
		return err
	}
	var iv [aes.BlockSize]byte
	cipher.NewCBCEncrypter(rw.block, iv[:]).CryptBlocks(rw.buf, rw.buf)
	rw.mac.Reset()
	rw.mac.Write(rw.buf)
	rw.mac.Sum(iv[:0])
	chunk := rw.buf[:refBytes/refPipeChunks]
	for i := 0; i < refPipeChunks; i++ {
		if _, err := rw.w.Write(chunk); err != nil {
			return err
		}
		if _, err := rw.r.Read(chunk); err != nil {
			return err
		}
	}
	return nil
}

// reference runs the bursts of one process.
type reference struct {
	workers []*refWorker
}

func newReference() (*reference, error) {
	ref := &reference{}
	for i := 0; i < clients; i++ {
		rw, err := newRefWorker()
		if err != nil {
			ref.close()
			return nil, err
		}
		ref.workers = append(ref.workers, rw)
	}
	return ref, nil
}

func (ref *reference) close() {
	for _, rw := range ref.workers {
		rw.close()
	}
}

// burst runs refBurstUnits units on every worker at once and returns the
// host speed it saw: reference units per CPU-second of this process.
func (ref *reference) burst() (float64, error) {
	errs := make([]error, len(ref.workers))
	cpu0 := selfCPUUs()
	var wg sync.WaitGroup
	for i, rw := range ref.workers {
		wg.Add(1)
		go func(i int, rw *refWorker) {
			defer wg.Done()
			for u := 0; u < refBurstUnits && errs[i] == nil; u++ {
				errs[i] = rw.unit()
			}
		}(i, rw)
	}
	wg.Wait()
	cpu := selfCPUUs() - cpu0
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference burst: %w", err)
		}
	}
	if cpu <= 0 {
		return 0, fmt.Errorf("reference burst: no CPU time measured")
	}
	return float64(refBurstUnits*len(ref.workers)) * 1e6 / float64(cpu), nil
}
