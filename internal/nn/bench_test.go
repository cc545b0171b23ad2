package nn

import (
	"math/rand"
	"testing"
)

// paperNet builds the paper's 147-256-32-32-16 policy network.
func paperNet(b *testing.B) *Network {
	b.Helper()
	n, err := New([]int{147, 256, 32, 32, 16}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// benchInput returns rows input rows in which each value is non-zero with
// probability density.
func benchInput(n *Network, rows int, density float64) []float64 {
	x := make([]float64, rows*n.InputSize())
	r := rand.New(rand.NewSource(2))
	for i := range x {
		if v := r.Float64(); r.Float64() < density {
			x[i] = v
		}
	}
	return x
}

// benchDensities are the input densities the kernels are measured at: 0.2 is
// about what an encoded scheduling state looks like, 0.3 and 0.5 bracket the
// densest rows the zero skip still gathers.
var benchDensities = []struct {
	name  string
	value float64
}{{"dense", 1}, {"density=0.2", 0.2}, {"density=0.3", 0.3}, {"density=0.5", 0.5}}

// BenchmarkProbsIntoMasked measures one masked inference per state, on each
// forward kernel: the kernel=go rows against the kernel=avx2 rows are the
// vector kernel's gain.
func BenchmarkProbsIntoMasked(b *testing.B) {
	n := paperNet(b)
	s := n.NewScratch()
	mask := make([]bool, n.OutputSize())
	for i := 0; i < len(mask); i += 2 {
		mask[i] = true
	}
	for _, kernel := range kernelNames() {
		for _, d := range benchDensities {
			x := benchInput(n, 1, d.value)
			b.Run("kernel="+kernel+"/"+d.name, func(b *testing.B) {
				b.ReportAllocs()
				withKernel(kernel, func() {
					for i := 0; i < b.N; i++ {
						if _, err := n.ProbsInto(s, x, mask); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// BenchmarkForwardBatchInto measures each forward kernel from the one-row
// case (one GEMV per state) up to matrix-matrix batches; the rows/s metric
// makes the sizes comparable.
func BenchmarkForwardBatchInto(b *testing.B) {
	n := paperNet(b)
	s := n.NewScratch()
	for _, kernel := range kernelNames() {
		for _, d := range benchDensities {
			for _, rows := range []int{1, 4, 16, 64} {
				x := benchInput(n, rows, d.value)
				b.Run("kernel="+kernel+"/"+d.name+"/rows="+itoa(rows), func(b *testing.B) {
					b.ReportAllocs()
					withKernel(kernel, func() {
						for i := 0; i < b.N; i++ {
							if _, err := n.ForwardBatchInto(s, x, rows); err != nil {
								b.Fatal(err)
							}
						}
					})
					b.ReportMetric(float64(b.N*rows)*1e9/float64(b.Elapsed().Nanoseconds()), "rows/s")
				})
			}
		}
	}
}

// BenchmarkBackwardBatchInto measures the batched gradient accumulation on a
// dense input batch and on one as sparse as encoded scheduling states.
func BenchmarkBackwardBatchInto(b *testing.B) {
	n := paperNet(b)
	const rows = 16
	for _, density := range benchDensities {
		b.Run(density.name, func(b *testing.B) {
			s := n.NewScratch()
			if _, err := n.ForwardBatchInto(s, benchInput(n, rows, density.value), rows); err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(3))
			d := make([]float64, rows*n.OutputSize())
			for i := range d {
				d[i] = r.NormFloat64()
			}
			g := n.NewGrads()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.BackwardBatchInto(s, d, rows, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkApplyRMSProp(b *testing.B) {
	n := paperNet(b)
	x := benchInput(n, 1, 1)
	s := n.NewScratch()
	probs, err := n.ProbsInto(s, x, nil)
	if err != nil {
		b.Fatal(err)
	}
	d := append([]float64(nil), probs...)
	d[3] -= 1
	g := n.NewGrads()
	if err := n.BackwardBatchInto(s, d, 1, g); err != nil {
		b.Fatal(err)
	}
	opt := DefaultRMSProp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddSamples(1) // Apply consumed the batch; the update cost does not depend on its values
		if err := n.Apply(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}
