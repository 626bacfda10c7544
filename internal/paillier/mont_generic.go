//go:build !amd64 || purego

package paillier

import (
	"math/bits"
	"unsafe"
)

// kernelCompiled reports that addMulVVW2048 is the portable Go loop.
const kernelCompiled = false

// kernelAvailable is false off amd64 and under purego: a word loop in Go
// is slower than big.Int's Mul+QuoRem, so the Montgomery code is never
// selected here and every modulus stays on the big.Int path.
func kernelAvailable() bool { return false }

// addMulVVW2048 is the portable word loop behind the Montgomery code: it
// sets z[0:montLimbs] += x[0:montLimbs]·y and returns the carry word.
// Production code never reaches it here (montKernel stays false); it lets
// the tests run the Montgomery arithmetic on every platform.
func addMulVVW2048(z, x *uint, y uint) (c uint) {
	zs, xs := unsafe.Slice(z, montLimbs), unsafe.Slice(x, montLimbs)
	for i := range zs {
		hi, lo := bits.Mul(xs[i], y)
		var cc uint
		lo, cc = bits.Add(lo, zs[i], 0)
		hi += cc
		lo, cc = bits.Add(lo, c, 0)
		zs[i], c = lo, hi+cc
	}
	return c
}
