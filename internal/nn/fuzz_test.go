package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// wrappingState is a saved model whose one layer claims 2^62 x 4 weights
// (2^30 x 4 where an int has 32 bits). The count wraps an int to 0, so the
// empty weight list matched it until Load checked for the overflow.
func wrappingState() networkState {
	return networkState{
		Sizes:   []int{math.MaxInt/2 + 1, 4},
		Weights: [][]float64{{}},
		Biases:  [][]float64{{1, 1, 1, 1}},
	}
}

// FuzzLoad feeds arbitrary bytes to Load, which must never panic. A network
// it accepts must Save to bytes that Load accepts again and that save
// identically, and its forward must answer with probabilities or an error.
func FuzzLoad(f *testing.F) {
	net, err := New([]int{3, 5, 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	var saved, wrapping bytes.Buffer
	if err := net.Save(&saved); err != nil {
		f.Fatal(err)
	}
	if err := gob.NewEncoder(&wrapping).Encode(wrappingState()); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(wrapping.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := net.Save(&first); err != nil {
			t.Fatalf("Save: %v", err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load refuses what an accepted network saves: %v", err)
		}
		if err := back.Save(&second); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("a reloaded network saves different bytes")
		}
		x := make([]float64, net.InputSize())
		for i := range x {
			x[i] = float64(i%3) - 1
		}
		if probs, err := net.ProbsInto(net.NewScratch(), x, nil); err == nil && len(probs) != net.OutputSize() {
			t.Fatalf("ProbsInto returned %d probabilities, want %d", len(probs), net.OutputSize())
		}
	})
}

// FuzzForwardBatchEquivalence feeds arbitrary byte-driven shapes, weights and
// inputs into each forward kernel and requires row r of ForwardBatchInto to
// be bit-identical to the naive oracle on that row, and row r of
// ProbsBatchInto to a one-row ProbsInto — the contract that makes batched and
// sequential rollouts interchangeable. Input widths run over every remainder
// of dot4's four-output grouping, output widths up to 72 over every remainder
// of dot32's 32-unit blocks and past two of them, and inputs include exact
// zeros of both signs (bytes 0 and 0x80, and everything past the end of the
// data), so rows land on both sides of the zero-skipping switch.
func FuzzForwardBatchEquivalence(f *testing.F) {
	f.Add([]byte{3, 4, 2, 2, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 1, 1, 0})
	f.Add([]byte{8, 8, 8, 6, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{})
	// Rows of 8 inputs into widths 5 and 7: all zero, one non-zero, exactly
	// half, just over half, and a -0 among non-zeros.
	f.Add([]byte{7, 4, 6, 4, 9,
		0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 40, 0, 0, 0, 0,
		3, 0, 250, 0, 17, 0, 99, 0,
		3, 1, 250, 0, 17, 0, 99, 0, 5,
		0x80, 1, 0x80, 0, 2, 0x80, 0, 0})
	// Widths on both sides of one and two 32-unit blocks, and the paper's
	// 16 logits.
	f.Add([]byte{6, 30, 32, 2, 3, 1, 0, 0x80, 200, 7, 0, 9, 9, 0, 0, 0x80, 1})
	f.Add([]byte{7, 31, 15, 5, 4, 5, 6, 7, 8, 0, 0, 0, 250, 251, 252})
	f.Add([]byte{4, 63, 64, 3, 11, 0, 0, 0, 0, 1, 2, 3, 4, 0x80, 0x80, 5, 6})
	f.Add([]byte{2, 64, 71, 1, 13, 99, 0x80, 0, 17})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		in := int(data[0]%8) + 1
		hid := int(data[1]%72) + 1
		out := int(data[2]%72) + 1
		rows := int(data[3]%6) + 1
		seed := int64(data[4])
		pos := 5
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			v := data[pos]
			pos++
			return v
		}

		net, err := New([]int{in, hid, out}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		x := make([]float64, rows*in)
		for i := range x {
			if b := next(); b == 0x80 {
				x[i] = math.Copysign(0, -1)
			} else {
				x[i] = float64(int8(b)) / 16
			}
		}
		masks := make([]bool, rows*out)
		for i := range masks {
			masks[i] = next()%2 == 0
		}
		for r := 0; r < rows; r++ {
			masks[r*out] = true // every row keeps at least one legal action
		}

		batch := net.NewScratch()
		single := net.NewScratch()
		for _, kernel := range kernelNames() {
			withKernel(kernel, func() {
				gotLogits, err := net.ForwardBatchInto(batch, x, rows)
				if err != nil {
					t.Fatalf("ForwardBatchInto: %v", err)
				}
				sameAsOracle(t, "kernel "+kernel, net, x, gotLogits)

				gotProbs, err := net.ProbsBatchInto(batch, x, rows, masks)
				if err != nil {
					t.Fatalf("ProbsBatchInto: %v", err)
				}
				for r := 0; r < rows; r++ {
					want, err := net.ProbsInto(single, x[r*in:(r+1)*in], masks[r*out:(r+1)*out])
					if err != nil {
						t.Fatalf("ProbsInto row %d: %v", r, err)
					}
					oracle := naiveSoftmax(naiveLogits(net, x[r*in:(r+1)*in]), masks[r*out:(r+1)*out])
					for j := range want {
						got := gotProbs[r*out+j]
						if math.Float64bits(got) != math.Float64bits(want[j]) {
							t.Fatalf("kernel %s: probs row %d col %d: batched %v != sequential %v", kernel, r, j, got, want[j])
						}
						if math.Float64bits(got) != math.Float64bits(oracle[j]) {
							t.Fatalf("kernel %s: probs row %d col %d: batched %v != oracle %v", kernel, r, j, got, oracle[j])
						}
					}
				}
			})
		}
	})
}

// FuzzBackwardBatchEquivalence feeds byte-driven shapes, weights, input rows
// and logit gradients through both backward phases on each kernel and
// requires every gradient to be the naive oracle's, bit for bit, so that the
// vector and pure-Go kernels agree with it and with each other. One to three
// tapes of one to twelve rows each go through SumBlock, its blocks in a
// shuffled order, into one Grads: per weight, each tape's rows summed from +0
// and added to the batch tape after tape. BackwardBatchInto over all the
// rows must give the oracle's straight row-order sums, on either side of the
// busy-row count at which it takes the vector kernel's phase 2.
// Input widths run to 256, past the vector kernel's split of a layer's inputs
// (192), hidden and output widths over every remainder of four and past two
// 32-unit blocks; each network has a hidden unit with no weights. Inputs hold
// exact zeros of both signs (bytes 0 and 0x80, and everything past the end
// of the data), and so do the logit gradients (bytes whose low two bits are
// zero), so rows land on both sides of the zero-skipping switch and some add
// nothing at all.
func FuzzBackwardBatchEquivalence(f *testing.F) {
	f.Add([]byte{6, 11, 4, 2, 3, 1, 9, 0, 0x80, 40, 3, 0, 0, 250, 17, 5, 8, 12, 16, 0x81, 77})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{146, 255, 15, 2, 4, 7})
	f.Add([]byte{199, 32, 32, 1, 2, 3, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{64, 64, 30, 0, 4, 11, 1, 0x80, 0, 5, 0, 0, 0, 200, 100, 50, 25})
	f.Add([]byte{30, 31, 64, 2, 0, 5, 255, 254, 253, 252, 0, 0x80, 0x80, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		in := int(data[0]) + 1
		hid := int(data[1]%72) + 1
		out := int(data[2]%72) + 1
		tapes := int(data[3]%3) + 1
		rows := int(data[4]%12) + 1
		rng := rand.New(rand.NewSource(int64(data[5])))
		pos := 6
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			v := data[pos]
			pos++
			return v
		}

		net, err := New([]int{in, hid, out}, rng)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		plantDeadUnits(rng, net)
		x := make([]float64, tapes*rows*in)
		for i := range x {
			if b := next(); b == 0x80 {
				x[i] = math.Copysign(0, -1)
			} else {
				x[i] = float64(int8(b)) / 16
			}
		}
		d := make([]float64, tapes*rows*out)
		for i := range d {
			switch b := next(); {
			case b&3 == 0:
				d[i] = math.Copysign(0, float64(int(b>>7)*-2+1))
			default:
				d[i] = float64(int8(b)) / 32
			}
		}

		// The oracle: per tape, naive sums from +0, added to the batch tape
		// after tape; and straight row-order sums over every row.
		batchW, batchB := net.NewGrads().w, net.NewGrads().b
		straightW, straightB := net.NewGrads().w, net.NewGrads().b
		for k := 0; k < tapes; k++ {
			w, b := net.NewGrads().w, net.NewGrads().b
			for r := k * rows; r < (k+1)*rows; r++ {
				naiveBackward(net, x[r*in:(r+1)*in], d[r*out:(r+1)*out], w, b)
				naiveBackward(net, x[r*in:(r+1)*in], d[r*out:(r+1)*out], straightW, straightB)
			}
			for l := range w {
				for i, v := range w[l] {
					batchW[l][i] += v
				}
				for i, v := range b[l] {
					batchB[l][i] += v
				}
			}
		}

		for _, kernel := range kernelNames() {
			withKernel(kernel, func() {
				s := net.NewScratch()
				if _, err := net.ForwardBatchInto(s, x, tapes*rows); err != nil {
					t.Fatalf("ForwardBatchInto: %v", err)
				}
				states := make([]float64, tapes*rows*net.RowStateSize())
				tps := make([]*Tape, tapes)
				for k := range tps {
					tps[k] = net.NewTape()
					for r := k * rows; r < (k+1)*rows; r++ {
						state := states[r*net.RowStateSize():][:net.RowStateSize()]
						net.SaveRow(s, r, state)
						dl, err := net.PushRow(tps[k], state)
						if err != nil {
							t.Fatalf("PushRow: %v", err)
						}
						copy(dl, d[r*out:(r+1)*out])
					}
					net.Backprop(tps[k])
				}
				straight := net.NewGrads()
				if err := net.BackwardBatchInto(s, d, tapes*rows, straight); err != nil {
					t.Fatalf("BackwardBatchInto: %v", err)
				}
				g := net.NewGrads()
				for _, b := range rng.Perm(net.GradBlocks()) {
					net.SumBlock(s, g, tps, b)
				}
				sameGradBits(t, fmt.Sprintf("kernel %s, %d-%d-%d, SumBlock", kernel, in, hid, out), g, batchW, batchB)
				sameGradBits(t, fmt.Sprintf("kernel %s, %d-%d-%d, BackwardBatchInto", kernel, in, hid, out), straight, straightW, straightB)
			})
		}
	})
}
