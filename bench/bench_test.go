package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// contract is the part of ../BENCHMARK.json the smoke test holds the
// program to.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name  string
		Unit  string
		Bound float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameMetrics fails unless got carries exactly the names and units of
// want. metricSet.add already panics on a name emitted twice.
func sameMetrics(t *testing.T, what string, got []metric, want map[string]string) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range got {
		seen[m.name] = true
		if !nameRE.MatchString(m.name) {
			t.Errorf("%s: malformed metric name %q", what, m.name)
		}
		if unit, ok := want[m.name]; !ok {
			t.Errorf("%s: emits %s, which BENCHMARK.json does not list", what, m.name)
		} else if unit != m.unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.name, m.unit, unit)
		}
	}
	var missing []string
	for name := range want {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%s: does not emit %v", what, missing)
	}
}

// TestWorkloadsSmoke boots every workload with a 300 ms traced window
// and asserts no timing: it commits, passes the convergence and
// acked-write check, fails nothing, and emits exactly the metrics
// BENCHMARK.json lists — the end-to-end ones never 0.
func TestWorkloadsSmoke(t *testing.T) {
	c := readContract(t)
	e2e, layer := make(map[string]string), make(map[string]string)
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(c.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(specs))
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			s, err := specByName(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runGuarded(s, runOpts{
				seed: 1, window: 300 * time.Millisecond, warmup: 100 * time.Millisecond,
				setups: 1, trace: true, probeRounds: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Errorf("check failed: %v", res.problems)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			sameMetrics(t, "end to end", res.e2e.list, e2e)
			sameMetrics(t, "per layer", res.layer.list, layer)
			for _, m := range res.e2e.list {
				if m.value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
		})
	}
}

// TestBoundsMatchContract keeps the calibration table's bounds and
// BENCHMARK.json's from drifting apart.
func TestBoundsMatchContract(t *testing.T) {
	c := readContract(t)
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, calibrate.go %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		if m.Name != endToEnd[i].name || m.Bound != endToEnd[i].bound {
			t.Errorf("end_to_end[%d] = %s/%v in BENCHMARK.json, %s/%v in calibrate.go",
				i, m.Name, m.Bound, endToEnd[i].name, endToEnd[i].bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
