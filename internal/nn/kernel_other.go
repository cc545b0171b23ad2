//go:build !amd64 || purego

package nn

// Without the amd64 assembly (another architecture, or the purego build tag)
// every pass takes the pure-Go kernels: dot4, and backward.go's axpy loops.
const haveAVX2 = false

var useAVX2 = false

func dot32(w []float64, bias *[32]float64, x []float64, idx []int32, out *[32]float64) {
	panic("nn: no vector kernel in this build")
}

func deltaRows(y, d, w []float64, live []int32, act []float64) {
	panic("nn: no vector kernel in this build")
}

func outer32(p []float64, d *[32]float64, x []float64, idx []int32, i0 int, bias *[32]float64) bool {
	panic("nn: no vector kernel in this build")
}

func addClear(dst, src []float64) { panic("nn: no vector kernel in this build") }

func nonZeros4(d []float64, buf []int32) int { panic("nn: no vector kernel in this build") }

func addClearRows(dst, src []float64, idx []int32, i0 int) {
	panic("nn: no vector kernel in this build")
}

func transpose4(dst []float64, dstStride int, src []float64, srcStride int, rows, cols int) {
	panic("nn: no vector kernel in this build")
}

func rmsprop(w, ms, g []float64, scale, rho, fresh, lr, eps float64) {
	panic("nn: no vector kernel in this build")
}
