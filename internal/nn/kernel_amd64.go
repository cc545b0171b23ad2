//go:build amd64 && !purego

package nn

// haveAVX2 reports whether this CPU runs the vector forward kernel, and the
// operating system saves its registers.
var haveAVX2 = detectAVX2()

// useAVX2 selects the forward kernel: the vector one where the CPU has it.
// Only tests switch it, to run the pure-Go path on the same machine.
var useAVX2 = haveAVX2

// dot32 computes the 32 output units of one block of a layer for one input
// row x: out[k] = bias[k] + Σ w[i*32+k]*x[i] over the indices i of idx, in
// their order, each product rounded before it is added. That is dot4's
// arithmetic in dot4's order, one unit per vector lane, so every sum has the
// bits dot4 gives it. w is the block's input-major packed weights, 32 per
// input; every index in idx must be below len(x), and len(w) at least
// 32*len(x): the assembly checks no bounds.
//
//go:noescape
func dot32(w []float64, bias *[32]float64, x []float64, idx []int32, out *[32]float64)

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xcr0 returns the low half of XCR0, read with XGETBV.
func xcr0() uint32

// detectAVX2 asks the CPU for AVX2 (CPUID leaf 7, EBX bit 5) and for AVX with
// OSXSAVE (leaf 1, ECX bits 28 and 27), then asks XCR0 whether the operating
// system saves the XMM and YMM state (bits 1 and 2). Without that last check
// a ymm register could be clobbered by a context switch.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
