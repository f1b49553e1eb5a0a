package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateFlags pins the CLI contract: -cluster and -artifact are
// mutually exclusive and reject the experiment-runner flags, -cluster takes
// no argument and -artifact at most one, and -machine belongs to -artifact.
// The removed artifact modes (-fleet, -rollout, -overload) and -shards are
// usage errors, so a command line written for them fails before anything
// runs.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantErr string // empty = valid
	}{
		{"defaults", "", ""},
		{"experiments with parallel", "-parallel 4 upgrade", ""},
		{"cluster", "-cluster", ""},
		{"artifact", "-artifact", ""},
		{"artifact 80-cpu machines", "-artifact -machine 80", ""},
		{"artifact 1000-cpu machines to a file", "-artifact -machine 1000 out.json", ""},
		{"artifact output file", "-artifact out.json", ""},

		{"artifact+cluster", "-artifact -cluster", "mutually exclusive"},
		{"artifact with quick", "-artifact -quick", "-quick applies to experiment runs"},
		{"artifact with parallel", "-artifact -parallel 4", "-parallel applies to experiment runs"},
		{"artifact with list", "-artifact -list", "-list does not compose"},
		{"artifact two args", "-artifact a b", "at most one argument"},
		{"bogus machine", "-artifact -machine 64", "-machine must be 8, 80, or 1000"},
		{"machine without artifact", "-machine 1000 table6", "-machine parameterizes -artifact only"},
		{"cluster with parallel", "-cluster -parallel 4", "-parallel applies to experiment runs"},
		{"cluster with list", "-cluster -list", "-list does not compose"},
		{"cluster output file", "-cluster out.json", "takes no argument"},
		{"zero parallel", "-parallel 0", "-parallel must be at least 1"},

		// Command lines of the removed modes and of -shards: usage errors
		// now, so one copied from an older doc fails before anything runs.
		{"fleet", "-fleet", "not defined: -fleet"},
		{"rollout", "-rollout", "not defined: -rollout"},
		{"overload", "-overload", "not defined: -overload"},
		{"cluster+fleet", "-cluster -fleet", "not defined: -fleet"},
		{"fleet+rollout", "-fleet -rollout", "not defined: -fleet"},
		{"overload+fleet", "-overload -fleet", "not defined: -overload"},
		{"overload+rollout", "-overload -rollout", "not defined: -overload"},
		{"fleet 80-cpu machines", "-fleet -machine 80", "not defined: -fleet"},
		{"rollout 80-cpu machines", "-rollout -machine 80", "not defined: -rollout"},
		{"overload 80-cpu machines", "-overload -machine 80", "not defined: -overload"},
		{"overload output file", "-overload out.json", "not defined: -overload"},
		{"fleet with quick", "-fleet -quick", "not defined: -fleet"},
		{"rollout with quick", "-rollout -quick", "not defined: -rollout"},
		{"overload with quick", "-overload -quick", "not defined: -overload"},
		{"overload with parallel", "-overload -parallel 4", "not defined: -overload"},
		{"overload with list", "-overload -list", "not defined: -overload"},
		{"fleet two args", "-fleet a b", "not defined: -fleet"},
		{"overload two args", "-overload a b", "not defined: -overload"},
		{"overload bogus machine", "-overload -machine 64", "not defined: -overload"},
		{"machine outside fleet", "-machine 80", "-machine parameterizes -artifact only"},
		{"shards outside fleet", "-shards 2", "not defined: -shards"},
		{"fleet matching shards", "-fleet -machine 1000 -shards 10", "not defined: -fleet"},
		{"overload matching shards", "-overload -machine 80 -shards 2", "not defined: -overload"},
		{"shards exceed nodes", "-artifact -machine 80 -shards 4", "not defined: -shards"},
		{"overload shards exceed nodes", "-overload -machine 80 -shards 4", "not defined: -overload"},
		{"shards mismatch nodes", "-artifact -machine 1000 -shards 2", "not defined: -shards"},
		{"overload shards mismatch nodes", "-overload -machine 1000 -shards 2", "not defined: -overload"},
		{"negative shards", "-artifact -shards -1", "not defined: -shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			_, err := parseFlags(strings.Fields(tc.args), &stderr)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%q) = %v, want nil", tc.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFlags(%q) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
			if !strings.Contains(stderr.String(), "usage: enokibench") {
				t.Fatalf("parseFlags(%q) printed no usage: %q", tc.args, stderr.String())
			}
		})
	}
}

// TestUsageErrorsExit2: a bad command line exits 2 and prints nothing on
// stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range []string{
		"-artifact -cluster", "-artifact -quick", "-artifact -parallel 4",
		"-machine 80", "-artifact a b", "-fleet", "-shards 2", "nosuchexperiment",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("enokibench %s: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}

// TestArtifactUnwritablePath: -artifact creates its output before any drive
// runs, so a path it cannot create exits 1 with the error at once — nothing
// on stdout, where every run prints its sections.
func TestArtifactUnwritablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "BENCH_cluster.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-artifact", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), path) {
		t.Fatalf("stdout %q, stderr %q: want no output and an error naming %s", stdout.String(), stderr.String(), path)
	}
}
