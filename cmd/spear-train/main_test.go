package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spear/internal/profile/profiletest"
)

// TestWriteFileAtomicKeepsThePreviousFileOnFailure: a write that fails part
// way must leave the checkpoint that was there, and nothing else, behind.
func TestWriteFileAtomicKeepsThePreviousFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	good := func(w io.Writer) error { _, err := io.WriteString(w, "epoch 10"); return err }
	if err := writeFileAtomic(path, good); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "epo"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing writer: got %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "epoch 10" {
		t.Errorf("after a failed write the file holds %q (%v), want the previous checkpoint", got, err)
	}
	// A later success replaces it, and no temporary file outlives either call.
	if err := writeFileAtomic(path, func(w io.Writer) error { _, err := io.WriteString(w, "epoch 20"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "epoch 20" {
		t.Errorf("after a successful write the file holds %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the model", len(entries))
	}
}

// TestRunRejectsBadCounts: a count below its minimum is refused with an
// error that names its flag, before any training starts or any model is
// written; none falls back to a default.
func TestRunRejectsBadCounts(t *testing.T) {
	out := filepath.Join(t.TempDir(), "model.gob")
	for _, tc := range []struct{ flag, value, min string }{
		{"epochs", "0", "1"},
		{"epochs", "-4", "1"},
		{"pretrain-epochs", "0", "1"},
		{"rollouts", "0", "1"},
		{"train-jobs", "0", "1"},
		{"tasks", "-1", "1"},
		{"workers", "-1", "0"},
		{"checkpoint-every", "-1", "0"},
	} {
		err := run([]string{"-q", "-out", out, "-" + tc.flag, tc.value})
		if err == nil || !strings.Contains(err.Error(), tc.flag+" "+tc.value+" must be >= "+tc.min) {
			t.Errorf("-%s %s: err = %v", tc.flag, tc.value, err)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run wrote %s (stat: %v)", out, err)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each leave a pprof file.
func TestProfileFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "model.gob")
	profiletest.Run(t, run, "-q", "-out", out, "-train-jobs", "1", "-tasks", "5",
		"-pretrain-epochs", "1", "-epochs", "1", "-rollouts", "2", "-workers", "1")
}
