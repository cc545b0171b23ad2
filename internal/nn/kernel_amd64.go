//go:build amd64 && !purego

package nn

// haveAVX2 reports whether this CPU runs the vector kernels, and the
// operating system saves their registers.
var haveAVX2 = detectAVX2()

// useAVX2 selects the kernels of both passes: the vector ones where the CPU
// has them. Only tests switch it, to run the pure-Go path on the same machine.
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

// deltaRows sets y[i] = Σ d[j]·w[j*len(y)+i] over the units j of live, in
// their order, from +0, for the first len(y)&^3 inputs i, and then applies
// the ReLU derivative: y[i] is +0 where act[i] <= 0. That is axpy4Rows' and
// axpy's arithmetic in their order, four inputs to a vector, so every sum has
// their bits, and reluDelta's select. w holds a weight row of len(y) for
// every unit, and act len(y) values; every unit in live must be below len(d)
// and have its row in w: the assembly checks no bounds.
//
//go:noescape
func deltaRows(y, d, w []float64, live []int32, act []float64)

// outer32 adds one row's terms to the sums of one phase-2 block of 32 units,
// kept input major: for each index i of idx, in order, p[(i-i0)*32+k] +=
// d[k]·x[i] for every unit k, the product rounded before it is added, and
// bias[k] += d[k] when bias is not nil. A unit whose delta is zero adds a
// signed zero, which changes no sum that began at +0 (see sumRows). A row
// whose 32 deltas are all zero adds nothing, and outer32 reports false. Every
// index must be below len(x), at least i0, and have its 32 sums in p.
//
//go:noescape
func outer32(p []float64, d *[32]float64, x []float64, idx []int32, i0 int, bias *[32]float64) bool

// addClear adds src to dst element by element and sets src to +0, over the
// first len(src)&^15 values; dst must be as long.
//
//go:noescape
func addClear(dst, src []float64)

// addClearRows is addClear over the rows of 32 values that idx names: for
// each index i, src[(i-i0)*32:][:32] is added to dst's and set to +0. Every
// index must be at least i0 and have its row in both.
//
//go:noescape
func addClearRows(dst, src []float64, idx []int32, i0 int)

// transpose4 copies the rows x cols matrix src, row major with rows
// srcStride apart, into dst column major with columns dstStride apart:
// dst[c*dstStride+r] = src[r*srcStride+c]. rows and cols must be multiples
// of four, and both slices hold every element addressed.
//
//go:noescape
func transpose4(dst []float64, dstStride int, src []float64, srcStride int, rows, cols int)

// nonZeros4 writes the indices of the non-zero values among the first
// len(d)&^3 of d to buf, in ascending order, and returns their count: what
// nonZeros keeps of them, four values a step. buf must hold len(d)&^3
// indices.
//
//go:noescape
func nonZeros4(d []float64, buf []int32) int

// rmsprop is Apply's update of the first len(w)&^3 parameters of w, with
// their accumulators ms and gradient sums g, four to a vector: the scalar
// loop's arithmetic in its order, each operation rounded on its own (no
// fused multiply-add), so every weight has the scalar loop's bits. fresh is
// 1-rho. ms and g must be as long as w.
//
//go:noescape
func rmsprop(w, ms, g []float64, scale, rho, fresh, lr, eps float64)

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
