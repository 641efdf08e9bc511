package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("qbs_test_total", `endpoint="/spg"`)
	c2 := r.Counter("qbs_test_total", `endpoint="/spg"`)
	if c1 != c2 {
		t.Fatal("same series returned distinct counters")
	}
	c3 := r.Counter("qbs_test_total", `endpoint="/paths"`)
	if c1 == c3 {
		t.Fatal("distinct label sets shared a counter")
	}
	c1.Inc()
	c1.Add(2)
	if c1.Load() != 3 {
		t.Fatalf("counter = %d, want 3", c1.Load())
	}
	g := r.Gauge("qbs_test_gauge", "")
	g.Set(5)
	g.Set(3)
	if g.Load() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Load())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("qbs_test_total", `endpoint="/spg"`)
}

func TestWritePrometheusAndValidate(t *testing.T) {
	r := NewRegistry()
	r.Counter("qbs_demo_requests_total", `endpoint="/spg"`).Add(7)
	r.Counter("qbs_demo_requests_total", `endpoint="/paths"`).Add(2)
	r.Gauge("qbs_demo_inflight", `endpoint="/spg"`).Set(1)
	r.GaugeFunc("qbs_demo_temp", "", func() float64 { return 1.5 })
	h := r.Histogram("qbs_demo_latency_ns", `endpoint="/spg"`)
	for i := int64(1); i <= 100; i++ {
		h.ObserveNs(i * 1000)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE qbs_demo_requests_total counter",
		`qbs_demo_requests_total{endpoint="/spg"} 7`,
		`qbs_demo_requests_total{endpoint="/paths"} 2`,
		"# TYPE qbs_demo_inflight gauge",
		"# TYPE qbs_demo_latency_ns summary",
		`qbs_demo_latency_ns{endpoint="/spg",quantile="0.5"}`,
		`qbs_demo_latency_ns{endpoint="/spg",quantile="0.999"}`,
		`qbs_demo_latency_ns_count{endpoint="/spg"} 100`,
		"# TYPE qbs_demo_latency_ns_max gauge",
		`qbs_demo_latency_ns_max{endpoint="/spg"} 100000`,
		"qbs_demo_temp 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("self-validation failed: %v\n%s", err, out)
	}
}

// Stacked registries must group shared families and drop duplicate
// series rather than emit an invalid scrape.
func TestWritePrometheusStacked(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("qbs_shared_total", `src="a"`).Add(1)
	b.Counter("qbs_shared_total", `src="b"`).Add(2)
	b.Counter("qbs_shared_total", `src="a"`).Add(99) // duplicate series; dropped
	b.Counter("qbs_only_b_total", "").Add(3)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("stacked scrape invalid: %v\n%s", err, out)
	}
	if strings.Count(out, "# TYPE qbs_shared_total counter") != 1 {
		t.Fatalf("family TYPE emitted more than once:\n%s", out)
	}
	if !strings.Contains(out, `qbs_shared_total{src="a"} 1`) {
		t.Fatalf("first registration lost:\n%s", out)
	}
	if strings.Contains(out, "99") {
		t.Fatalf("duplicate series leaked:\n%s", out)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"duplicate series":  "a_total 1\na_total 1\n",
		"malformed line":    "not a metric!!! x\n",
		"bad value":         "a_total pizza\n",
		"interleaved":       "a_total 1\nb_total 1\na_total{x=\"1\"} 2\n",
		"duplicate TYPE":    "# TYPE a counter\na 1\n# TYPE a counter\n",
		"malformed comment": "# WHAT\n",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	ok := "# TYPE a_total counter\na_total{x=\"1\"} 1\na_total{x=\"2\"} 2\n# TYPE b gauge\nb 0.5\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Errorf("valid scrape rejected: %v", err)
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace id length: %q %q", a, b)
	}
	if a == b {
		t.Fatal("trace ids collide")
	}
}
