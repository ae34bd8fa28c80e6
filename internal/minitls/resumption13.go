package minitls

import (
	"crypto/sha256"
	"crypto/subtle"

	"qtls/internal/minitls/prf"
)

// TLS 1.3 session resumption (RFC 8446 §2.2, §4.2.11, §4.6.1), in
// psk_dhe_ke mode: the server issues a NewSessionTicket wrapping the
// resumption PSK after the handshake; a later connection offers the
// ticket in a pre_shared_key extension (with its binder) and, on
// acceptance, skips the certificate flight while still performing an
// ECDHE exchange for forward secrecy.
//
// This is the "enhanced security requires more key derivation operations"
// path the paper notes for TLS 1.3 (§2.1): the abbreviated handshake
// still runs the full HKDF schedule plus the binder derivations — all of
// it on the worker CPU, since HKDF is not offloadable.

// binderLen is the SHA-256 HMAC binder length.
const binderLen = sha256.Size

// pskBinderSuffixLen is the wire size of the binders list this stack
// emits: binders vector length (2) + one binder entry (1 + 32).
const pskBinderSuffixLen = 2 + 1 + binderLen

// resumptionMasterSecret derives the TLS 1.3 resumption master secret
// over the full handshake transcript (through client Finished).
func resumptionMasterSecret(masterSecret, fullTranscriptHash []byte) []byte {
	return prf.DeriveSecret(masterSecret, "res master", fullTranscriptHash)
}

// resumptionPSK derives the PSK from the resumption master secret
// (RFC 8446 §4.6.1 with a fixed ticket nonce).
func resumptionPSK(resMaster []byte) []byte {
	return prf.HKDFExpandLabel(resMaster, "resumption", []byte{0, 0, 0, 0}, sha256.Size)
}

// resumptionPSKClient is the client-side alias of resumptionPSK (both
// ends must derive the identical PSK from the shared resumption master).
func resumptionPSKClient(resMaster []byte) []byte { return resumptionPSK(resMaster) }

// binderKey derives the PSK binder MAC key from the PSK-based early
// secret (RFC 8446 §7.1: Derive-Secret(early, "res binder", "")).
func binderKey(earlySecret []byte) []byte {
	bk := prf.DeriveSecret(earlySecret, "res binder", emptyHash())
	return prf.HKDFExpandLabel(bk, "finished", nil, sha256.Size)
}

// computeBinder MACs the truncated-ClientHello transcript hash.
func computeBinder(earlySecret, truncatedCHHash []byte) []byte {
	return hmacSHA256(binderKey(earlySecret), truncatedCHHash)
}

// verifyBinder checks a received binder in constant time.
func verifyBinder(earlySecret, truncatedCHHash, binder []byte) bool {
	want := computeBinder(earlySecret, truncatedCHHash)
	return subtle.ConstantTimeCompare(want, binder) == 1
}

// truncatedCHHash computes the binder transcript hash: the ClientHello
// message bytes (framed) with the binders list removed. The PSK
// extension is always the last extension this stack emits, so the
// binders are the trailing pskBinderSuffixLen bytes.
func truncatedCHHash(chMsg []byte) []byte {
	if len(chMsg) <= pskBinderSuffixLen {
		return nil
	}
	h := sha256.Sum256(chMsg[:len(chMsg)-pskBinderSuffixLen])
	return h[:]
}
