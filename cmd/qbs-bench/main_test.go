package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"qbs/internal/bench"
)

func TestUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-exp", "nosuch"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range bench.Experiments {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error does not list %q: %v", e.Name, err)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("printed before refusing: %q", stdout.String())
	}
}

func TestRunsOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "table1", "-datasets", "DO", "-scale", "0.05"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"num_cpu=", "scale=0.05", "seed=2021", "## Table 1", "Douban (DO)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n## "); n != 1 {
		t.Errorf("%d sections rendered, want 1", n)
	}
}

func TestHelpListsEveryExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	help := stderr.String()
	for _, e := range bench.Experiments {
		if !strings.Contains(help, "  "+e.Name+" ") || !strings.Contains(help, e.Doc) {
			t.Errorf("-h does not describe %q", e.Name)
		}
	}
	if n := strings.Count(help, "\n  -"); n != 8 {
		t.Errorf("-h lists %d flags, want 8:\n%s", n, help)
	}
}
