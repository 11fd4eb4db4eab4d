// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload on the real runtime — worlds, HLS registry,
// checkpoint coordinator and loopback TCP transports all in this one
// process — for a fixed wall-clock budget, checks every step bitwise
// against a reference that does not use the layer under test, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run also records spans around every call into a layer and reports the
// per-layer set. See README.md for the workloads and the metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh -workload halo-wire -seed 1 -seconds 10 -trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: mesh-update | halo-wire | raytrace")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds of timed steps")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for checkpoints and the span file")
	flag.Parse()
	if flag.NArg() != 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.scale = fullScale
	runtime.GOMAXPROCS(benchProcs())

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: results differ from the reference")
		os.Exit(1)
	}
}

// benchProcs caps GOMAXPROCS at two: every rank is a goroutine, and the
// figures must mean the same on a larger machine as on the two-core box
// the numbers in README.md come from.
func benchProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}
