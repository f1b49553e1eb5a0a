package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestReplayDispatch drives main's -replay road for every spec family: the
// clean pinned specs exit 0, the seeded-bug configurations exit 1 with the
// oracle's violations printed, and malformed input exits 2 with the
// *SpecError message on stderr.
func TestReplayDispatch(t *testing.T) {
	for _, row := range []struct {
		args []string
		code int
		want string // substring of stdout (codes 0, 1) or stderr (code 2)
	}{
		{[]string{"-replay", "v1:shinjuku:37467eec32c27644:2"}, 0, "oracle: PASS"},
		{[]string{"-replay", "f1:wfq:5eed:3"}, 0, "events=[machine-kill[m"},
		{[]string{"-replay", "r1:wfq:9:7"}, 0, "halted=true"},
		{[]string{"-replay", "t1:shinjuku:2a:3"}, 0, "oracle: PASS"},
		{[]string{"-replay", "v1:shinjuku:37467eec32c27644:2", "-verified"}, 0, "oracle: PASS"},

		{[]string{"-replay", "v1:shinjuku:37467eec32c27644:2", "-norollback"}, 1,
			"violation: module killed without a kill-justifying fault plane"},
		{[]string{"-replay", "t1:shinjuku:2a:3", "-leakshed"}, 1, "violation: conservation:"},

		{[]string{"-replay", "x1:wfq:1:1"}, 2, `bad shape in spec "x1:wfq:1:1"`},
		{[]string{"-replay", "nonsense"}, 2, "bad shape"},
		{[]string{"-replay", "v1:wfq:zz:1"}, 2, "bad seed"},
		{[]string{"-replay", "f1:nosuch:5eed:3"}, 2, `unknown class "nosuch"`},
		{[]string{"-replay", "r1:cfs:9:7"}, 2, "bad class"},
		{[]string{"-replay", "t1:shinjuku:2a:ffffff"}, 2, "bad mask"},
		{[]string{"-nosuchflag"}, 2, "usage: enoki-chaos"},
		{[]string{"-h"}, 0, ""},
	} {
		var out, errw bytes.Buffer
		code := run(row.args, &out, &errw)
		got := out.String()
		if row.code == 2 {
			got = errw.String()
		}
		if code != row.code || !strings.Contains(got, row.want) {
			t.Errorf("enoki-chaos %v: exit %d, want %d with %q in:\n%s%s",
				row.args, code, row.code, row.want, out.String(), errw.String())
		}
	}
}

// TestCampaignExitCodes: a clean campaign exits 0; the seeded rollback bug
// fails the build with a reproducer that carries the configuration.
func TestCampaignExitCodes(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-runs", "7", "-seed", "0xe120c1", "-v"}, &out, &errw); code != 0 {
		t.Fatalf("clean campaign exit %d:\n%s%s", code, out.String(), errw.String())
	}
	if n := strings.Count(out.String(), "\nrun "); n != 6 || !strings.Contains(out.String(), "campaign: 7 runs, 0 failures") {
		t.Errorf("campaign output:\n%s", out.String())
	}
	out.Reset()
	code := run([]string{"-runs", "60", "-seed", "0xbadcafe", "-norollback", "-maxfailures", "1"}, &out, &errw)
	if code != 1 || !strings.Contains(out.String(), "reproduce: enoki-chaos -replay v1:fifo:ba29107d460d80ee:1 -norollback") {
		t.Errorf("buggy campaign exit %d:\n%s", code, out.String())
	}
}
