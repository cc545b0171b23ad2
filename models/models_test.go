package models

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spear/internal/drl"
)

// TestLoadCheckedInPolicy: the embedded policy is the paper's 256/32/32 MLP
// over the default featurization, and a save of it writes the embedded bytes
// back.
func TestLoadCheckedInPolicy(t *testing.T) {
	net, err := Load("")
	if err != nil {
		t.Fatal(err)
	}
	feat := drl.DefaultFeatures()
	if got, want := net.Sizes(), []int{feat.InputSize(), 256, 32, 32, feat.OutputSize()}; !slices.Equal(got, want) {
		t.Errorf("policy layers %v, want %v", got, want)
	}
	if Recipe.Feat != feat {
		t.Errorf("Recipe.Feat = %+v, want the default featurization %+v", Recipe.Feat, feat)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), policy) {
		t.Error("saving the loaded policy does not write the embedded bytes")
	}
}

// TestLoadRefuses: a missing file, a file that is no network and a network
// of another featurization are errors that name the file.
func TestLoadRefuses(t *testing.T) {
	dir := t.TempDir()
	small, err := drl.DefaultNetwork(drl.Features{Window: 4, Horizon: 8, Dims: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := small.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"small.gob": buf.Bytes(), "junk.gob": []byte("not a network")} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ file, want string }{
		{"missing.gob", "no such file"},
		{"junk.gob", "junk.gob: nn: decode"},
		{"small.gob", "small.gob reads"},
	} {
		_, err := Load(filepath.Join(dir, tc.file))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load(%s): err = %v, want one containing %q", tc.file, err, tc.want)
		}
	}
}
