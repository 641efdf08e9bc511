package store

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"qbs/internal/obs"
)

// The build-info gauge must render as a valid exposition sample on the
// process-wide registry: constant 1 with the toolchain and format
// versions as labels.
func TestBuildInfoExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, obs.Default); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	text := buf.String()
	var line string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "qbs_build_info{") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("qbs_build_info series missing from exposition:\n%s", text)
	}
	for _, want := range []string{
		`go_version="` + runtime.Version() + `"`,
		`snapshot_format="3"`,
		`dynamic_snapshot_format="5"`,
		`wal_format="1"`,
		`module_version="`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("qbs_build_info line %q missing %q", line, want)
		}
	}
	if !strings.HasSuffix(line, "} 1") {
		t.Errorf("qbs_build_info should be a constant-1 gauge, got %q", line)
	}
}
