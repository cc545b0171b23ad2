// Package profile gives every command the same -cpuprofile and -memprofile
// flags: a CPU profile of the run and a heap profile at its end, in the
// format `go tool pprof` reads.
//
//	prof := profile.Register(fs)
//	// parse fs
//	if err := prof.Start(); err != nil {
//		return err
//	}
//	defer prof.Stop(&err) // err: the function's named error result
package profile

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two flags' values and the CPU profile being written.
type Flags struct {
	cpuPath, memPath string
	cpu              *os.File
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpuPath, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.memPath, "memprofile", "", "write a heap profile at the end of the run to this file")
	return f
}

// Start starts the CPU profile, if -cpuprofile asked for one.
func (f *Flags) Start() error {
	if f.cpuPath == "" {
		return nil
	}
	cpu, err := os.Create(f.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		return fmt.Errorf("cpuprofile: %w", errors.Join(err, cpu.Close()))
	}
	f.cpu = cpu
	return nil
}

// Stop ends the CPU profile Start began and writes the heap profile, as the
// flags asked, and joins any error in doing so into *err.
func (f *Flags) Stop(err *error) {
	if f.cpu != nil {
		pprof.StopCPUProfile()
		if cerr := f.cpu.Close(); cerr != nil {
			*err = errors.Join(*err, fmt.Errorf("cpuprofile: %w", cerr))
		}
		f.cpu = nil
	}
	if f.memPath != "" {
		if herr := writeHeap(f.memPath); herr != nil {
			*err = errors.Join(*err, fmt.Errorf("memprofile: %w", herr))
		}
	}
}

// writeHeap writes the heap profile as of a collection run just before it.
func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		return errors.Join(err, out.Close())
	}
	return out.Close()
}
