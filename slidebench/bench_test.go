package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"slider/internal/mapreduce"
	"slider/internal/pig"
)

// workloads lists every workload config.json defines; BENCHMARK.json
// runs a subset of them.
var workloads = []string{"fixed-wide", "variable-pool", "ooo-late", "query-l2"}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares,
// as "name unit" strings.
func benchmarkSpec(t *testing.T) (endToEnd, perLayerMetrics []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := loadParams(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		perLayerMetrics = append(perLayerMetrics, m.Name+" "+m.Unit)
	}
	return endToEnd, perLayerMetrics
}

func metricNames(r result) []string {
	var out []string
	for k, m := range r.Metrics {
		out = append(out, k+" "+m.Unit)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, ",") == strings.Join(b, ",")
}

// TestHarnessShort runs every workload for a few slides in both modes:
// the oracle must pass and the result must carry exactly the metrics,
// with the units, that BENCHMARK.json declares.
func TestHarnessShort(t *testing.T) {
	endToEnd, layers := benchmarkSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w + "/e2e"
			want := endToEnd
			if trace {
				name, want = w+"/layers", layers
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: w, seed: 3, seconds: 5, trace: trace, setupReps: 1, maxSlides: 5, checkEvery: 2}
				var log strings.Builder
				res, err := run(o, &log)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
				}
				if got := metricNames(res); !sameSet(got, want) {
					t.Fatalf("metrics %v, want %v", got, want)
				}
			})
		}
	}
}

// TestOracleCatchesAlteredOutput alters one key (one row for the query)
// of a correct output and expects the oracle to refuse it.
func TestOracleCatchesAlteredOutput(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			p, err := loadParams(w)
			if err != nil {
				t.Fatal(err)
			}
			st := newStream(p, 5)
			sys := newSystem(p, 5, nil)
			defer sys.close()
			if err := sys.start(st.initial()); err != nil {
				t.Fatal(err)
			}
			for range 3 {
				if _, err := sys.apply(st.peek()); err != nil {
					t.Fatal(err)
				}
				st.commit()
			}
			if err := sys.check(st.window()); err != nil {
				t.Fatalf("unaltered output refused: %v", err)
			}
			switch s := sys.(type) {
			case *wcSystem:
				s.last = alterKey(s.last)
			case *querySystem:
				s.last = alterRow(s.last)
			}
			if err := sys.check(st.window()); err == nil {
				t.Fatal("oracle accepted an output with one key altered")
			}
		})
	}
}

func alterKey(out mapreduce.Output) mapreduce.Output {
	altered := make(mapreduce.Output, len(out))
	for k, v := range out {
		altered[k] = v
	}
	for k, v := range altered {
		altered[k] = v.(int64) + 1
		break
	}
	return altered
}

func alterRow(rows []pig.Row) []pig.Row {
	altered := append([]pig.Row(nil), rows...)
	row := append(pig.Row(nil), altered[0]...)
	row[0] = "altered"
	altered[0] = row
	return altered
}

// TestQuantile checks the Harrell-Davis estimator where its value is
// known: the median of symmetric data, and a quantile of evenly spaced
// data, which it interpolates.
func TestQuantile(t *testing.T) {
	xs := make([]float64, 201)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	if got := quantile(xs, 0.5); math.Abs(got-100) > 1e-9 {
		t.Fatalf("median of 0..200 = %v, want 100", got)
	}
	if got := quantile(xs, 0.95); math.Abs(got-190) > 0.5 {
		t.Fatalf("p95 of 0..200 = %v, want about 190", got)
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Fatalf("p95 of one sample = %v, want 7", got)
	}
}
