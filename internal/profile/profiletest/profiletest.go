// Package profiletest checks the files a command's -cpuprofile and
// -memprofile flags write.
package profiletest

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Run calls run once per profile flag, with args and that flag naming a
// file in a temporary directory, and fails t unless the run succeeds and the
// file holds a non-empty profile.
func Run(t *testing.T, run func(args []string) error, args ...string) {
	t.Helper()
	for _, flag := range []string{"cpuprofile", "memprofile"} {
		t.Run(flag, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), flag+".pprof")
			if err := run(append(append([]string(nil), args...), "-"+flag, path)); err != nil {
				t.Fatal(err)
			}
			if err := check(path); err != nil {
				t.Error(err)
			}
		})
	}
}

// check reports whether path holds a non-empty profile in the pprof format:
// a gzip stream around a protobuf message that parses field by field and
// holds the profile's sample types (field 1), which every profile has.
func check(path string) error {
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close() //spear:ignoreerr(read-only file; a close error loses no data)
	z, err := gzip.NewReader(bufio.NewReader(in))
	if err != nil {
		return fmt.Errorf("%s: not gzip: %w", path, err)
	}
	b, err := io.ReadAll(z)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	sampleTypes := false
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("%s: bad protobuf key", path)
		}
		b, sampleTypes = b[n:], sampleTypes || key>>3 == 1
		size := 0
		switch key & 7 {
		case 0: // varint
			if _, size = binary.Uvarint(b); size <= 0 {
				return fmt.Errorf("%s: bad varint in field %d", path, key>>3)
			}
		case 1: // 64-bit
			size = 8
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("%s: bad length in field %d", path, key>>3)
			}
			size = n + int(l)
		case 5: // 32-bit
			size = 4
		default:
			return fmt.Errorf("%s: wire type %d in field %d", path, key&7, key>>3)
		}
		if size > len(b) {
			return fmt.Errorf("%s: field %d runs past the end", path, key>>3)
		}
		b = b[size:]
	}
	if !sampleTypes {
		return fmt.Errorf("%s: no sample types: not a profile", path)
	}
	return nil
}
