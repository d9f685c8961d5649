package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The self-tests run every workload at small scale and check that the run
// is correct, that its output names exactly the metrics BENCHMARK.json
// declares, and that the correctness checks fail when an expected value is
// perturbed.

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func runSmall(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"--scale", "small", "--seconds", "1", "--seed", "7", "--workdir", filepath.Join(t.TempDir(), "work")}, args...)
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s\n%s", err, out.String(), errb.String())
	}
	return code, res, errb.String()
}

func checkNames(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var g, w []string
	for n, m := range got {
		g = append(g, n+" "+m.Unit)
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("metrics differ from BENCHMARK.json:\n got  %v\n want %v", g, w)
	}
}

func TestWorkloadsSmall(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workload) != len(profiles["full"]) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workload), len(profiles["full"]))
	}
	for _, w := range d.Workload {
		t.Run(w.Name, func(t *testing.T) {
			code, res, stderr := runSmall(t, "--workload", w.Name)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, stderr)
			}
			checkNames(t, res.Metrics, d.EndToEnd)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", n, m.Value)
				}
			}
		})
	}
}

func TestTracedSmall(t *testing.T) {
	d := loadDeclared(t)
	for _, w := range d.Workload {
		t.Run(w.Name, func(t *testing.T) {
			code, res, stderr := runSmall(t, "--workload", w.Name, "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("exit %d, result %+v\n%s", code, res, stderr)
			}
			checkNames(t, res.Metrics, d.PerLayer)
			// Every open peer translates every published transaction.
			want := 4.0
			if w.Name == "query-mix" {
				want = 1 // only crete reconciles
			}
			if got := res.Metrics["exchange.translations_per_txn"].Value; got != want {
				t.Errorf("exchange.translations_per_txn = %v, want %v", got, want)
			}
			if got := res.Metrics["error_rate"].Value; got != 0 {
				t.Errorf("error_rate = %v", got)
			}
		})
	}
}

// A perturbed expected digest or answer count must fail the run, so the
// checks are not vacuous: digest corrupts the reference replay's digest,
// recovery the digest a store restart or crash recovery must reproduce,
// count the answer count of every query.
func TestChecksCatchPerturbation(t *testing.T) {
	cases := []struct{ workload, perturb string }{
		{"curation", "digest"},
		{"durable", "digest"},
		{"curation", "count"},
		{"query-mix", "count"},
		{"curation", "recovery"},
		{"durable", "recovery"},
		{"query-mix", "recovery"},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.perturb, func(t *testing.T) {
			code, res, _ := runSmall(t, "--workload", c.workload, "--perturb", c.perturb)
			if code == 0 || res.Correct {
				t.Fatalf("perturbed %s still passed: exit %d, correct %v", c.perturb, code, res.Correct)
			}
		})
	}
}
