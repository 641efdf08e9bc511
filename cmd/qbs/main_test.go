package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qbs"
	"qbs/internal/bfs"
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
	if _, err := qbs.CreateDiStore(ddir, graph.AsDirected(g), qbs.DiStoreOptions{Index: qbs.Options{NumLandmarks: 2}}); err != nil {
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

// TestDirectedGraphFileAnswersTheOracle: -directed -graph reads the file
// as arcs, and each -query prints the DiSPG(u→v) the brute-force oracle
// gives over the same arcs: its distance, vertex and arc counts, and
// under -v exactly its arcs.
func TestDirectedGraphFileAnswersTheOracle(t *testing.T) {
	var arcs []graph.Arc
	for _, p := range [][2]graph.V{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {0, 4}, {4, 3}, {3, 5}, {5, 0}, {2, 6}, {6, 7}, {1, 6}} {
		arcs = append(arcs, graph.Arc{From: p[0], To: p[1]})
	}
	text := "# a digraph whose ids are its dense ids\n"
	for _, a := range arcs {
		text += fmt.Sprintf("%d %d\n", a.From, a.To)
	}
	path := filepath.Join(t.TempDir(), "g.arcs")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	g := graph.MustFromArcs(8, arcs)
	pairs := [][2]graph.V{{0, 3}, {3, 0}, {0, 7}, {7, 0}, {5, 6}, {4, 1}, {2, 2}}
	args := []string{"-directed", "-graph", path, "-landmarks", "2", "-v"}
	for _, p := range pairs {
		args = append(args, "-query", fmt.Sprintf("%d,%d", p[0], p[1]))
	}
	out, exit := runMain(t, args...)
	if exit != 0 {
		t.Fatalf("exit %d\n%s", exit, out)
	}
	// Each answer is its head line, timing cut, and its sorted arc lines.
	var got []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "DiSPG("):
			if i := strings.Index(line, " d⊤="); i >= 0 {
				line = line[:i]
			} else {
				line = line[:strings.LastIndex(line, " (")]
			}
			got = append(got, line)
		case strings.HasPrefix(line, "  ") && len(got) > 0:
			got[len(got)-1] += "\n" + strings.TrimSpace(line)
		}
	}
	var want []string
	for _, p := range pairs {
		spg := bfs.OracleDiSPG(g, p[0], p[1])
		head := fmt.Sprintf("DiSPG(%d→%d): ", p[0], p[1])
		if spg.Dist == graph.InfDist {
			want = append(want, head+"unreachable")
			continue
		}
		lines := []string{fmt.Sprintf("%sdist=%d vertices=%d arcs=%d", head, spg.Dist, len(spg.Vertices()), spg.NumEdges())}
		for _, a := range spg.Arcs() {
			lines = append(lines, fmt.Sprintf("%d -> %d", a.From, a.To))
		}
		slices.Sort(lines[1:])
		want = append(want, strings.Join(lines, "\n"))
	}
	for i := range got {
		head, rest, _ := strings.Cut(got[i], "\n")
		arcLines := strings.Split(rest, "\n")
		slices.Sort(arcLines)
		if rest != "" {
			got[i] = head + "\n" + strings.Join(arcLines, "\n")
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("printed\n%s\n\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// statsBlock maps each line of a -stats block ("  size(L):  1600 bytes")
// to its value, leaving out the timings.
func statsBlock(out string) map[string]string {
	block := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		key, value, ok := strings.Cut(line, ":")
		if !ok || !strings.HasPrefix(key, "  ") || strings.HasSuffix(key, " time") {
			continue
		}
		block[strings.TrimSpace(key)] = strings.TrimSpace(value)
	}
	return block
}

// answerLines returns the answer lines of a run, each cut before its
// timing.
func answerLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "SPG(") || strings.HasPrefix(line, "DiSPG(") {
			lines = append(lines, line[:max(strings.LastIndex(line, " ["), strings.LastIndex(line, " ("))])
		}
	}
	return lines
}

// TestDirectedDataTakesEveryIndexSetting: -directed -data builds with
// -landmarks, -strategy and -seed, as every other arm does. It refuses
// the coverage strategy as an in-memory directed build does, building
// nothing into the directory, and a random-landmark build persists the
// index the in-memory run builds: the same -stats block and the same
// answers, d⊤ included, built and reopened.
func TestDirectedDataTakesEveryIndexSetting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	wk := []string{"-directed", "-dataset", "WK", "-scale", "0.02", "-landmarks", "4"}
	for _, arm := range [][]string{nil, {"-data", dir}} {
		out, exit := runMain(t, slices.Concat(wk, []string{"-strategy", "coverage", "-random", "1"}, arm)...)
		if exit != 1 || !strings.Contains(out, `landmark strategy "coverage" ranks an undirected graph`) {
			t.Fatalf("-strategy coverage %v: exit %d\n%s", arm, exit, out)
		}
	}
	if qbs.DiStoreExists(dir) {
		t.Fatal("a refused build left a directed store behind")
	}

	random := slices.Concat(wk, []string{"-strategy", "random", "-seed", "9", "-stats", "-random", "20"})
	runs := map[string][]string{
		"in memory": random,
		"persisted": slices.Concat(random, []string{"-data", dir}),
		"reopened":  {"-directed", "-data", dir, "-stats", "-random", "20", "-seed", "9"},
	}
	var wantStats map[string]string
	var wantAnswers []string
	for _, name := range []string{"in memory", "persisted", "reopened"} {
		out, exit := runMain(t, runs[name]...)
		if exit != 0 {
			t.Fatalf("%s: exit %d\n%s", name, exit, out)
		}
		stats, answers := statsBlock(out), answerLines(out)
		if wantStats == nil {
			wantStats, wantAnswers = stats, answers
			if len(answers) != 20 || stats["meta edges"] == "" {
				t.Fatalf("%s: %d answers, stats %v\n%s", name, len(answers), stats, out)
			}
			continue
		}
		if !reflect.DeepEqual(stats, wantStats) || !slices.Equal(answers, wantAnswers) {
			t.Fatalf("%s: stats %v and answers\n%s\nwant stats %v and answers\n%s",
				name, stats, strings.Join(answers, "\n"), wantStats, strings.Join(wantAnswers, "\n"))
		}
	}
}

// TestStatsPrintsEveryArm: -stats prints the index's block on the
// static, directed and data-directory arms: |R| landmarks and size(L) =
// |V|·|R| bytes per labelling (a digraph has two); a store adds its
// epoch and edge count, the others their label entries and meta-edges;
// and a reopened data directory prints the block its building run did.
func TestStatsPrintsEveryArm(t *testing.T) {
	udir, ddir := filepath.Join(t.TempDir(), "u"), filepath.Join(t.TempDir(), "d")
	do := []string{"-dataset", "DO", "-scale", "0.02", "-landmarks", "4", "-stats"}
	wk := []string{"-directed", "-dataset", "WK", "-scale", "0.02", "-landmarks", "4", "-stats"}
	built := map[string]map[string]string{}
	for _, c := range []struct {
		args       []string
		labellings int
		store      bool
	}{
		{do, 1, false},
		{wk, 2, false},
		{slices.Concat(do, []string{"-data", udir}), 1, true},
		{slices.Concat(wk, []string{"-data", ddir}), 2, false},
	} {
		out, exit := runMain(t, c.args...)
		if exit != 0 {
			t.Fatalf("%v: exit %d\n%s", c.args, exit, out)
		}
		var n, m int
		if _, err := fmt.Sscanf(out[strings.Index(out, "graph: "):], "graph: |V|=%d |E|=%d", &n, &m); err != nil {
			t.Fatalf("%v: %v\n%s", c.args, err, out)
		}
		stats := statsBlock(out)
		want := map[string]string{
			"landmarks": "4",
			"size(L)":   fmt.Sprintf("%d bytes", n*4*c.labellings),
			"size(Δ)":   stats["size(Δ)"],
		}
		if c.store {
			want["epoch"], want["edges"] = "0", fmt.Sprint(m)
		} else {
			want["label entries"], want["meta edges"] = stats["label entries"], stats["meta edges"]
		}
		if !reflect.DeepEqual(stats, want) || !strings.HasSuffix(stats["size(Δ)"], " bytes") {
			t.Fatalf("%v: -stats block %v, want %v\n%s", c.args, stats, want, out)
		}
		if timed := buildTimings(out); timed != !c.store {
			t.Fatalf("%v: build timings printed %v, want %v\n%s", c.args, timed, !c.store, out)
		}
		built[strings.Join(c.args, " ")] = stats
	}
	for _, c := range []struct{ reopen, build []string }{
		{[]string{"-data", udir, "-stats"}, slices.Concat(do, []string{"-data", udir})},
		{[]string{"-directed", "-data", ddir, "-stats"}, slices.Concat(wk, []string{"-data", ddir})},
	} {
		out, exit := runMain(t, c.reopen...)
		if got, want := statsBlock(out), built[strings.Join(c.build, " ")]; exit != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: exit %d, -stats block %v, want the building run's %v\n%s", c.reopen, exit, got, want, out)
		}
		if strings.Contains(out, "labelling time:") || strings.Contains(out, "meta/Δ time:") {
			t.Fatalf("%v: a reopened index prints build timings it never measured\n%s", c.reopen, out)
		}
	}
}

// buildTimings reports whether a run's -stats block prints the build's
// labelling and meta/Δ timings.
func buildTimings(out string) bool {
	return strings.Contains(out, "  labelling time: ") && strings.Contains(out, "  meta/Δ time: ")
}

// TestFatalNamesTheCommandOnce: an error reaches stderr prefixed "qbs: "
// once, whether the command wrote it (a missing graph source) or the
// library did and already named itself (a refused build).
func TestFatalNamesTheCommandOnce(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-random 1", "qbs: one of -graph or -dataset is required (or -data with an existing store)\n"},
		{"-directed -dataset WK -scale 0.02 -landmarks 4 -strategy coverage -random 1",
			"qbs: landmark strategy \"coverage\" ranks an undirected graph; use degree or random on a directed one\n"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "QBS_MAIN_ARGS="+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || stderr.String() != c.want {
			t.Errorf("qbs %s: %v, stderr %q, want exit 1 and %q", c.args, err, stderr.String(), c.want)
		}
	}
}
