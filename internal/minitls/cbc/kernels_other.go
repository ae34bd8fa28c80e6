//go:build !amd64 || purego

package cbc

// haveKernels is false: every Keys is built on the standard library.
const haveKernels = false

func sha1Block(*[5]uint32, []byte)                      { panic("cbc: no kernels") }
func expandKey(*[16]byte, *[44]uint32, *[44]uint32)     { panic("cbc: no kernels") }
func encryptCBC(*[44]uint32, []byte, []byte, *[16]byte) { panic("cbc: no kernels") }
func decryptCBC(*[44]uint32, []byte, []byte, *[16]byte) { panic("cbc: no kernels") }
