package minitls

import (
	"crypto"
	"crypto/hmac"
	"crypto/sha256"
	"sync/atomic"

	"qtls/internal/minitls/prf"
)

// cryptoSHA256 names the hash used throughout this stack's signatures.
const cryptoSHA256 = crypto.SHA256

// --- TLS 1.2 key schedule (RFC 5246 §8) ----------------------------------

const (
	masterSecretLen  = 48
	finishedVerify12 = 12
)

// prfKey is a TLS 1.2 PRF secret whose keyed MAC outlives one derivation:
// a connection keys its master secret's MAC once for the key block and
// both Finished messages. The MAC follows the cbcState rule: a derivation
// takes it by swap and puts it back, because an op closure may run twice,
// even at once (a device result racing the software fallback after a
// timeout), and the run that finds it taken builds its own.
type prfKey struct {
	secret []byte
	mac    atomic.Pointer[prf.TLS12Key]
}

// derive is PRF(secret, label, seed) producing length bytes.
func (k *prfKey) derive(label string, seed []byte, length int) []byte {
	m := k.mac.Swap(nil)
	if m == nil {
		m = prf.NewTLS12Key(k.secret)
	}
	out := m.Derive(label, seed, length)
	k.mac.Store(m)
	return out
}

// masterSeed is the client_random || server_random seed for the master
// secret derivation.
func masterSeed(clientRandom, serverRandom [32]byte) []byte {
	seed := make([]byte, 0, 64)
	seed = append(seed, clientRandom[:]...)
	seed = append(seed, serverRandom[:]...)
	return seed
}

// keyExpansionSeed is the server_random || client_random seed for the key
// block derivation.
func keyExpansionSeed(clientRandom, serverRandom [32]byte) []byte {
	seed := make([]byte, 0, 64)
	seed = append(seed, serverRandom[:]...)
	seed = append(seed, clientRandom[:]...)
	return seed
}

// keyBlockLen is the TLS 1.2 key block size for AES-128-CBC + HMAC-SHA1:
// two 20-byte MAC keys and two 16-byte cipher keys (explicit IVs need no
// key-block material).
const keyBlockLen = 2*20 + 2*16

// splitKeyBlock carves the key block into directional CBC keys.
func splitKeyBlock(kb []byte) (client, server cbcKeys) {
	client.macKey = kb[0:20]
	server.macKey = kb[20:40]
	client.cipherKey = kb[40:56]
	server.cipherKey = kb[56:72]
	return client, server
}

// --- TLS 1.3 key schedule (RFC 8446 §7.1) --------------------------------

// tls13Secrets carries the evolving TLS 1.3 secrets.
type tls13Secrets struct {
	handshakeSecret []byte
	masterSecret    []byte
	clientHS        []byte
	serverHS        []byte
	clientApp       []byte
	serverApp       []byte
}

// emptyHash is SHA-256 of the empty string, used by Derive-Secret for
// "derived" steps.
func emptyHash() []byte {
	h := sha256.Sum256(nil)
	return h[:]
}

// zeros32 is a 32-byte zero string (the default IKM/PSK input).
func zeros32() []byte { return make([]byte, 32) }

// hkdfExtract and deriveSecret re-export the prf package primitives so
// handshake code reads like RFC 8446 §7.1.
func hkdfExtract(salt, ikm []byte) []byte { return prf.HKDFExtract(salt, ikm) }

func deriveSecret(secret []byte, label string, th []byte) []byte {
	return prf.DeriveSecret(secret, label, th)
}

// trafficKeys derives the AEAD key and IV from a traffic secret.
func trafficKeys(secret []byte) gcmKeys {
	return gcmKeys{
		key: prf.HKDFExpandLabel(secret, "key", nil, 16),
		iv:  prf.HKDFExpandLabel(secret, "iv", nil, 12),
	}
}

// finishedMAC13 computes the TLS 1.3 Finished verify_data for a traffic
// secret over the given transcript hash.
func finishedMAC13(trafficSecret, transcriptHash []byte) []byte {
	finishedKey := prf.HKDFExpandLabel(trafficSecret, "finished", nil, sha256.Size)
	m := hmac.New(sha256.New, finishedKey)
	m.Write(transcriptHash)
	return m.Sum(nil)
}

// certVerifyContent13 builds the to-be-signed content for the TLS 1.3
// server CertificateVerify (RFC 8446 §4.4.3).
func certVerifyContent13(transcriptHash []byte) []byte {
	const ctx = "TLS 1.3, server CertificateVerify"
	b := make([]byte, 0, 64+len(ctx)+1+len(transcriptHash))
	for i := 0; i < 64; i++ {
		b = append(b, 0x20)
	}
	b = append(b, ctx...)
	b = append(b, 0)
	b = append(b, transcriptHash...)
	return b
}
