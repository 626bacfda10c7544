//go:build amd64 && !purego

package paillier

// kernelCompiled reports that addMulVVW2048 is the ADX assembly, which
// must not run on a CPU without ADX and BMI2.
const kernelCompiled = true

// addMulVVW2048 sets z[0:32] += x[0:32]·y and returns the carry word. It
// is the ADX/BMI2 body of Go's bigmod kernel (mont_amd64.s) and must only
// be called when kernelAvailable reports true.
//
//go:noescape
func addMulVVW2048(z, x *uint, y uint) (c uint)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// kernelAvailable reports whether the CPU has ADX and BMI2 (CPUID leaf 7,
// subleaf 0, EBX bits 19 and 8), which the kernel's MULX/ADCX/ADOX need.
func kernelAvailable() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}
