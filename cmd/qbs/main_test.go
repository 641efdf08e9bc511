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
