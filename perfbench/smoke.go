package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check compares
// against the metrics a run prints.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSmoke runs every workload of BENCHMARK.json at toy size, untraced and
// traced, and asserts that each prints every metric BENCHMARK.json names,
// with its unit, and success_ratio 1. It then runs each workload once with
// a deliberately wrong expectation, which must fail the run.
func runSmoke(bin, work string) error {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		for trace, metrics := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			res, code, err := smokeRun(self, bin, work, w.Name, trace, false)
			if err != nil {
				return err
			}
			if code != 0 || !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s --trace %d: exit %d, correct %v, failed %d", w.Name, trace, code, res.Correct, res.Failed)
			}
			var missing []string
			for _, m := range metrics {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					missing = append(missing, m.Name)
				}
			}
			if len(missing) > 0 || len(res.Metrics) != len(metrics) {
				sort.Strings(missing)
				return fmt.Errorf("%s --trace %d: %d metrics printed, BENCHMARK.json names %d; missing or wrong unit: %v",
					w.Name, trace, len(res.Metrics), len(metrics), missing)
			}
			if trace == 0 && res.Metrics["success_ratio"].Value != 1 {
				return fmt.Errorf("%s: success_ratio %v, want 1", w.Name, res.Metrics["success_ratio"].Value)
			}
			fmt.Fprintf(os.Stderr, "smoke: %s --trace %d ok (%d metrics)\n", w.Name, trace, len(res.Metrics))
		}
		res, code, err := smokeRun(self, bin, work, w.Name, 0, true)
		if err != nil {
			return err
		}
		if code == 0 || res.Correct || res.Failed == 0 {
			return fmt.Errorf("%s with a wrong expectation: exit %d, correct %v, failed %d; the checks did not catch it",
				w.Name, code, res.Correct, res.Failed)
		}
		fmt.Fprintf(os.Stderr, "smoke: %s with a wrong expectation fails as it must\n", w.Name)
	}
	return nil
}

// smokeRun runs one toy-size invocation and parses its last stdout line.
func smokeRun(self, bin, work, workload string, trace int, wrong bool) (resultJSON, int, error) {
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", fmt.Sprint(trace),
		"--toy", "--privtreed", bin, "--work", work}
	if wrong {
		args = append(args, "--wrong-expectation")
	}
	cmd := exec.Command(self, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	code := cmd.ProcessState.ExitCode()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return resultJSON{}, code, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, code, fmt.Errorf("%s --trace %d printed no result (exit %d): %s", workload, trace, code, errOut.String())
	}
	return res, code, nil
}
