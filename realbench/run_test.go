package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunPrintsCheckedResult runs the real cluster briefly, untraced and
// traced, and checks the contract of the last output line.
func TestRunPrintsCheckedResult(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("boots a TCP cluster; under -race it is too slow to fill a window")
	}
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		args := []string{"--workload", "sig-closed", "--seed", "3", "--seconds", "6", "--trace", trace, "--out", t.TempDir()}
		if code := run(args, &out); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		var r result
		_ = json.Unmarshal([]byte(lines[len(lines)-1]), &r)
		if len(res) != 4 || !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Fatalf("trace %s: result %s\n%s", trace, lines[len(lines)-1], out.String())
		}
		want := 9
		if trace == "1" {
			want = len(layerMetrics(tracedWindow{completed: 1}))
		}
		if len(r.Metrics) != want {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(r.Metrics), want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sig-closed", "--trace", "2"},
		{"--workload", "sig-closed", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q; want an error and no result", args, code, out.String())
		}
	}
}
