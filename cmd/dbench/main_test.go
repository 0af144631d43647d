package main

import (
	"strings"
	"testing"
)

func TestParseExperimentsValid(t *testing.T) {
	want, err := parseExperiments("t3, F4 ,t5")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"t3", "f4", "t5"} {
		if !want[e] {
			t.Errorf("token %q not selected: %v", e, want)
		}
	}
	if want["all"] || want["f5"] {
		t.Errorf("unexpected selections: %v", want)
	}
	if _, err := parseExperiments("all"); err != nil {
		t.Errorf("all: %v", err)
	}
}

// An unknown or misspelled -exp token must be an error listing the valid
// names — dbench used to exit 0 having run nothing.
func TestParseExperimentsUnknownToken(t *testing.T) {
	for _, list := range []string{"f8", "t3,f44", "table3", "", "t3,,f4"} {
		_, err := parseExperiments(list)
		if err == nil {
			t.Errorf("parseExperiments(%q): expected error", list)
			continue
		}
		if !strings.Contains(err.Error(), "t3, f4, f5, t4, t5, f6, f7") {
			t.Errorf("parseExperiments(%q): error does not list valid names: %v", list, err)
		}
	}
}

// "chaos" is a valid -exp token but must never be selected by "all":
// the exploration harness is opt-in, not a paper table.
func TestParseExperimentsChaosOptIn(t *testing.T) {
	want, err := parseExperiments("chaos")
	if err != nil {
		t.Fatal(err)
	}
	if !want["chaos"] {
		t.Errorf("chaos not selected: %v", want)
	}
	want, err = parseExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if want["chaos"] {
		t.Errorf("\"all\" must not select chaos: %v", want)
	}
}

// TestRunRejectsBadFlags checks that bad flags fail before any campaign
// runs. Rows with a msg pin the exact error text: every comma-list flag
// has one bad-token row, quoting the token as its parser normalises it.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		msg  string // exact error text; "" = any error
	}{
		{args: []string{"-scale", "huge"}},
		{args: []string{"-exp", "f8"}},
		{args: []string{"-exp", "t3,f44"}},
		{args: []string{"-parallel", "-2"}},
		{args: []string{"-nosuchflag"}},
		{args: []string{"-exp", "chaos", "-crashpoints", "0"}},
		{args: []string{"-exp", "t4", "-stats", "m.csv", "-sample-interval", "0s"}},
		{args: []string{"-exp", "t4", "-awr", "-sample-interval", "-1s"}},
		{args: []string{"-warehouses", "1, 0"},
			msg: `bad -warehouses value "0": want positive integers, e.g. 1,2,4,8`},
		{args: []string{"-recovery-workers", "x"},
			msg: `bad -recovery-workers value "x": want positive integers, e.g. 1,4`},
		{args: []string{"-exp", "replica", "-standbys", "0"},
			msg: `bad -standbys value "0": want positive integers, e.g. 1,3`},
		{args: []string{"-exp", "replica", "-repl-mode", "sync, Semi"},
			msg: `bad -repl-mode value " Semi": want sync or async`},
		{args: []string{"-exp", "replica", "-repl-link", "moon"},
			msg: `bad -repl-link value "moon": want lan or wan`},
		{args: []string{"-exp", "pareto", "-pareto-grid", "f1g3t1,f9g9t9"},
			msg: `bad -pareto-grid value "F9G9T9": want Table 3 config names, e.g. F1G3T1,F100G3T10`},
	}
	for _, c := range cases {
		err := run(c.args)
		switch {
		case err == nil:
			t.Errorf("run(%v): expected error", c.args)
		case c.msg != "" && err.Error() != c.msg:
			t.Errorf("run(%v): error %q, want %q", c.args, err, c.msg)
		}
	}
}
