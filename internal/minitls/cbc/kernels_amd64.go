//go:build amd64 && !purego

package cbc

// haveKernels reports whether this CPU runs the assembly kernels: AES-NI,
// the SHA extensions, SSSE3 (PSHUFB) and SSE4.1 (PINSRD, PEXTRD).
var haveKernels = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const ssse3, sse41, aesni, sha = 1 << 9, 1 << 19, 1 << 25, 1 << 29
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(ssse3|sse41|aesni) == ssse3|sse41|aesni && ebx7&sha != 0
}()

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

//go:noescape
func sha1Block(h *[5]uint32, p []byte)

//go:noescape
func expandKey(key *[16]byte, enc, dec *[44]uint32)

//go:noescape
func encryptCBC(xk *[44]uint32, dst, src []byte, iv *[16]byte)

//go:noescape
func decryptCBC(xk *[44]uint32, dst, src []byte, iv *[16]byte)
