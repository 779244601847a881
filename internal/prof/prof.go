// Package prof wires the standard runtime/pprof file profiles into the
// cmd tools so performance regressions can be diagnosed without editing
// code: pass -cpuprofile/-memprofile (and, for contention hunting in
// the channel-sharded device mode, -mutexprofile/-blockprofile) and feed
// the files to `go tool pprof`.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Options names the profile outputs; empty paths disable that profile.
type Options struct {
	CPU   string // pprof CPU profile
	Mem   string // heap profile, written at stop after a forced GC
	Mutex string // mutex contention profile (SetMutexProfileFraction(1))
	Block string // blocking profile (SetBlockProfileRate(1))
}

// Start begins CPU profiling when cpuPath is non-empty and returns a
// stop function that finalizes the CPU profile and, when memPath is
// non-empty, writes a heap profile. It is StartAll restricted to the two
// classic profiles, kept for the common call sites.
func Start(cpuPath, memPath string) (func(), error) {
	return StartAll(Options{CPU: cpuPath, Mem: memPath})
}

// StartAll begins every requested profile and returns a stop function
// that finalizes them. Mutex and block profiling are sampled at full
// rate for the process lifetime between start and stop — cheap for the
// coordinator/lane handoffs being hunted, but not free; leave them off
// unless diagnosing contention. The stop function must run before the
// process exits — including error paths — or the profiles are
// truncated; it is safe to call more than once.
func StartAll(o Options) (func(), error) {
	var cpuFile *os.File
	if o.CPU != "" {
		f, err := os.Create(o.CPU)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
		cpuFile = f
	}
	if o.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if o.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	done := false
	stop := func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if o.Mem != "" {
			runtime.GC() // materialize up-to-date allocation stats
			writeLookup(o.Mem, "heap")
		}
		if o.Mutex != "" {
			writeLookup(o.Mutex, "mutex")
			runtime.SetMutexProfileFraction(0)
		}
		if o.Block != "" {
			writeLookup(o.Block, "block")
			runtime.SetBlockProfileRate(0)
		}
	}
	return stop, nil
}

// writeLookup dumps one named runtime profile; failures are reported to
// stderr rather than returned, matching the stop path's best-effort
// contract.
func writeLookup(path, profile string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
		return
	}
	defer f.Close()
	p := pprof.Lookup(profile)
	if p == nil {
		fmt.Fprintf(os.Stderr, "prof: no %s profile\n", profile)
		return
	}
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
	}
}
