package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchSpec is the part of ../BENCHMARK.json the self-test checks
// against: every metric it lists must be printed with its unit.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs a workload at tinyScale and returns its printed output
// and the parsed result line.
func runTiny(t *testing.T, workload string, traced, corrupt bool) (string, resultLine) {
	t.Helper()
	o := options{
		workload: workload, seed: 3, seconds: 0.3, out: t.TempDir(),
		scale: tinyScale, corruptRef: corrupt,
	}
	if traced {
		o.trace = 1
	}
	rep, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return buf.String(), res
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			_, res := runTiny(t, wl.Name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: digests disagree with the reference",
					wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	for name := range workloads {
		out, res := runTiny(t, name, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted reference passed: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
		if rate := printedValue(t, out, "error_rate"); rate <= 0 {
			t.Errorf("%s: error_rate printed as %g, want > 0", name, rate)
		}
	}
}

// printedValue returns the value of the text line that names metric.
func printedValue(t *testing.T, out, metric string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == metric {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("%s: %v", metric, err)
			}
			return v
		}
	}
	t.Fatalf("%s not printed", metric)
	return 0
}

func TestTailWindowsKeepTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{50, 100, 999, 1000, 1098, 1099, 5000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i % tailWindow)
		}
		tails, ps := windowTails(xs)
		if len(tails) == 0 {
			t.Fatalf("n=%d: no window", n)
		}
		for i, p := range ps {
			if n >= 100 && p != 0.9 {
				t.Errorf("n=%d window %d: tail is p%g, want p90", n, i, p*100)
			}
		}
	}
}
