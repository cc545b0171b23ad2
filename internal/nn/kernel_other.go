//go:build !amd64 || purego

package nn

// Without the amd64 assembly (another architecture, or the purego build tag)
// every forward takes dot4's pure-Go path.
const haveAVX2 = false

var useAVX2 = false

func dot32(w []float64, bias *[32]float64, x []float64, idx []int32, out *[32]float64) {
	panic("nn: no vector kernel in this build")
}
