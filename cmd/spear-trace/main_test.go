package main

import (
	"testing"

	"spear/internal/profile/profiletest"
)

// TestProfileFlags: -cpuprofile and -memprofile each leave a pprof file.
func TestProfileFlags(t *testing.T) {
	profiletest.Run(t, run, "-seed", "7")
}
