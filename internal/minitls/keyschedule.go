package minitls

import (
	"crypto"
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
// both Finished messages. The key is held by value and follows the
// cbcProtection rule: a derivation takes it by swapping busy, because an
// op may run twice, even at once (a device result racing the
// software fallback after a timeout), and the run that finds it taken
// builds its own from the pool and gives it back when done. release hands
// the MAC back once the handshake derives nothing more from the secret.
type prfKey struct {
	secret []byte
	busy   atomic.Bool
	keyed  bool // key holds secret's MAC; read and written under busy
	key    prf.TLS12Key
}

// prfOut is one derivation's result. It is returned as a pointer, so
// handing it through the provider as an any costs nothing; every TLS 1.2
// derivation (a 48-byte master secret, the 72-byte key block, 12 bytes of
// verify data) fits.
type prfOut [keyBlockLen]byte

// derive is PRF(secret, label, seed) producing length bytes into a fresh
// result, the derivation's one allocation.
func (k *prfKey) derive(label string, seed []byte, length int) *prfOut {
	out := new(prfOut)
	k.deriveTo(out[:length], label, seed)
	return out
}

// deriveTo is PRF(secret, label, seed) into out.
func (k *prfKey) deriveTo(out []byte, label string, seed []byte) {
	if k.busy.CompareAndSwap(false, true) {
		if !k.keyed {
			k.key.SetKey(k.secret)
			k.keyed = true
		}
		k.key.DeriveTo(out, label, seed)
		k.busy.Store(false)
		return
	}
	own := prf.NewTLS12Key(k.secret)
	own.DeriveTo(out, label, seed)
	own.Release()
}

// prfOp is one offloaded PRF derivation: its arguments and a result slot.
// A connection keeps one (Conn.prfSlot) and hands the provider its run
// method, bound once. The arguments are read-only while the op is out; the
// result slot goes to the first run, and a second run — a device result
// racing the software fallback of an abandoned op — derives into a fresh
// result instead, the busy swap prfKey and cbcProtection use.
type prfOp struct {
	key     *prfKey
	label   string
	seed    []byte
	length  int
	outBusy atomic.Bool
	out     prfOut
}

func (op *prfOp) run() (any, error) {
	if !op.outBusy.CompareAndSwap(false, true) {
		return op.key.derive(op.label, op.seed, op.length), nil
	}
	op.key.deriveTo(op.out[:op.length], op.label, op.seed)
	return &op.out, nil
}

// release gives the key's MAC back to the pool unless a derivation holds
// it (an abandoned offload, which keeps it for the garbage collector).
// Once it is back, every derivation builds its own.
func (k *prfKey) release() {
	if k.busy.CompareAndSwap(false, true) && k.keyed {
		k.key.Release()
		k.keyed = false
	}
}

// prfSeed writes a ‖ b into seed and returns it: client_random ‖
// server_random seeds the master secret, server_random ‖ client_random the
// key block. The seed lives in the handshake state, not in a fresh slice,
// and each derivation has its own, since an abandoned run may still read
// it.
func prfSeed(seed *[64]byte, a, b *[32]byte) []byte {
	copy(seed[:32], a[:])
	copy(seed[32:], b[:])
	return seed[:]
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
	return hmacSHA256(prf.HKDFExpandLabel(trafficSecret, "finished", nil, sha256.Size), transcriptHash)
}

// hmacSHA256 is HMAC-SHA256(key, msg) in a fresh slice, keyed on a pooled
// MAC.
func hmacSHA256(key, msg []byte) []byte {
	m := prf.GetHMAC(key)
	m.Write(msg)
	out := m.Sum(make([]byte, 0, sha256.Size))
	prf.PutHMAC(m)
	return out
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
