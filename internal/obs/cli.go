package obs

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags bundles the standard telemetry and profiling knobs every command
// in this repo exposes, so attackd, collect and benchpaper wire the layer
// identically:
//
//	-telemetry out.jsonl            (sim-time event stream, JSONL)
//	-cpuprofile / -memprofile       (opt-in pprof dumps)
//
// traceview -telemetry-chrome converts a captured stream into a
// Perfetto-loadable Chrome trace.
type Flags struct {
	Path    string
	CPUProf string
	MemProf string
}

// Register installs the flags on a FlagSet (flag.CommandLine in main).
func (fl *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&fl.Path, "telemetry", "", "write the deterministic sim-time telemetry stream (JSONL) to this file")
	fs.StringVar(&fl.CPUProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&fl.MemProf, "memprofile", "", "write a heap profile to this file on exit")
}

// Tracer returns a live tracer when -telemetry was given, nil otherwise —
// the nil tracer is the zero-cost disabled path.
func (fl *Flags) Tracer() *Tracer {
	if fl.Path == "" {
		return nil
	}
	return New()
}

// StartProfiles begins CPU profiling if requested and returns a stop
// function that finishes the CPU profile and dumps the heap profile; call
// it (once) before exiting.
func (fl *Flags) StartProfiles() (stop func() error, err error) {
	var cpu *os.File
	if fl.CPUProf != "" {
		cpu, err = os.Create(fl.CPUProf)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if fl.MemProf != "" {
			f, err := os.Create(fl.MemProf)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// Write exports a tracer's merged event stream to the configured path as
// JSONL. A nil tracer (telemetry disabled) is a no-op.
func (fl *Flags) Write(tr *Tracer) error {
	if tr == nil || fl.Path == "" {
		return nil
	}
	f, err := os.Create(fl.Path)
	if err != nil {
		return err
	}
	err = WriteJSONL(f, tr.Events())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
