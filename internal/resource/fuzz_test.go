package resource

import "testing"

// FuzzResourceArithmetic feeds arbitrary byte-driven vectors into the
// arithmetic: Add/Sub must round-trip exactly, FitsWithin must be consistent
// with subtraction, and mismatched dimensions must error rather than panic.
func FuzzResourceArithmetic(f *testing.F) {
	f.Add([]byte{2, 3, 5, 1, 2})
	f.Add([]byte{4, 0, 0, 0, 0, 63, 63, 63, 63})
	f.Add([]byte{1, 7, 7})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dims := int(data[0]%6) + 1
		pos := 1
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			v := data[pos]
			pos++
			return v
		}
		a := New(dims)
		b := New(dims)
		for d := 0; d < dims; d++ {
			a[d] = int64(next() % 64)
			b[d] = int64(next() % 64)
		}

		sum, err := a.Add(b)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		if swapped, _ := b.Add(a); !sum.Equal(swapped) {
			t.Fatalf("Add not commutative: %v vs %v", sum, swapped)
		}
		back, err := sum.Sub(b)
		if err != nil {
			t.Fatalf("Sub: %v", err)
		}
		if !back.Equal(a) {
			t.Fatalf("Add/Sub round trip: %v -> %v -> %v", a, sum, back)
		}

		// FitsWithin(capacity) must agree with non-negative headroom.
		if b.FitsWithin(sum) {
			head, err := sum.Sub(b)
			if err != nil {
				t.Fatalf("Sub after FitsWithin: %v", err)
			}
			if !head.NonNegative() {
				t.Fatalf("%v fits %v but headroom %v is negative", b, sum, head)
			}
		}
		if !a.FitsWithin(sum) {
			t.Fatalf("%v does not fit its own sum %v", a, sum)
		}

		// Mismatched dimensions must error, never panic.
		other := New(dims + 1)
		if _, err := a.Add(other); err == nil {
			t.Fatal("Add across dims succeeded")
		}
		if _, err := a.Sub(other); err == nil {
			t.Fatal("Sub across dims succeeded")
		}
	})
}
