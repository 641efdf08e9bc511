package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"qbs"
	"qbs/internal/graph"
)

// TestMain lets a test run this command's own main in a child process:
// with QBS_MAIN_ARGS set the test binary is the command.
func TestMain(m *testing.M) {
	if args := os.Getenv("QBS_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"qbs"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (output string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "QBS_MAIN_ARGS="+strings.Join(args, " "))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), 0
}

// TestDataDirReopensTheSameAnswers: -data is the one persisted form of
// an index. A run that builds and persists it and a later run that
// reopens it with no graph source print the answers an in-memory build
// prints, line for line once the timing is cut.
func TestDataDirReopensTheSameAnswers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	answers := func(args ...string) []string {
		t.Helper()
		out, exit := runMain(t, args...)
		if exit != 0 {
			t.Fatalf("qbs %v: exit %d\n%s", args, exit, out)
		}
		var lines []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "SPG(") {
				// "SPG(u,v): dist=… [took]" or "SPG(u,v): disconnected (took)".
				timing := max(strings.LastIndex(line, " ["), strings.LastIndex(line, " ("))
				if timing < 0 {
					t.Fatalf("qbs %v: answer line without timing: %q", args, line)
				}
				lines = append(lines, line[:timing])
			}
		}
		if len(lines) != 20 {
			t.Fatalf("qbs %v: %d answer lines, want 20\n%s", args, len(lines), out)
		}
		return lines
	}
	build := []string{"-dataset", "DO", "-scale", "0.02", "-landmarks", "4", "-random", "20", "-seed", "5"}
	inMemory := answers(build...)
	persisted := answers(append(build, "-data", dir)...)
	reopened := answers("-data", dir, "-random", "20", "-seed", "5")
	for i := range inMemory {
		if persisted[i] != inMemory[i] || reopened[i] != inMemory[i] {
			t.Fatalf("answer %d: in memory %q, persisted %q, reopened %q", i, inMemory[i], persisted[i], reopened[i])
		}
	}
}

// TestDataDirOfTheOtherKindIsRefused: -data over a store of the other
// orientation exits 1 naming what is there and the flag that opens it,
// and builds nothing into the directory.
func TestDataDirOfTheOtherKindIsRefused(t *testing.T) {
	g := graph.Grid(5, 5)
	udir, ddir := t.TempDir(), t.TempDir()
	st, err := qbs.CreateStore(udir, g, qbs.StoreOptions{Index: qbs.Options{NumLandmarks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := qbs.CreateDiStore(ddir, qbs.AsDirected(g), qbs.DiStoreOptions{Index: qbs.DiOptions{NumLandmarks: 2}}); err != nil {
		t.Fatal(err)
	}

	out, exit := runMain(t, "-directed", "-dataset", "DO", "-scale", "0.02", "-landmarks", "4", "-data", udir, "-random", "1")
	if exit != 1 || !strings.Contains(out, "already contains an undirected store; open it without -directed") {
		t.Fatalf("-directed over an undirected store: exit %d\n%s", exit, out)
	}
	if qbs.DiStoreExists(udir) {
		t.Fatal("a directed index was built into the undirected store's directory")
	}
	out, exit = runMain(t, "-dataset", "DO", "-scale", "0.02", "-landmarks", "4", "-data", ddir, "-random", "1")
	if exit != 1 || !strings.Contains(out, "already contains a directed store; open it with -directed") {
		t.Fatalf("undirected run over a directed store: exit %d\n%s", exit, out)
	}
	if _, err := os.Stat(filepath.Join(ddir, "wal")); err == nil || qbs.StoreExists(ddir) {
		t.Fatal("an undirected store was started in the directed store's directory")
	}

	// Each still opens as what it is, through the same command.
	if out, exit := runMain(t, "-data", udir, "-query", "0,24"); exit != 0 || !strings.Contains(out, "SPG(0,24): dist=8") {
		t.Fatalf("undirected store: exit %d\n%s", exit, out)
	}
	if out, exit := runMain(t, "-directed", "-data", ddir, "-query", "0,24"); exit != 0 || !strings.Contains(out, "DiSPG(0→24): dist=8") {
		t.Fatalf("directed store: exit %d\n%s", exit, out)
	}
}
