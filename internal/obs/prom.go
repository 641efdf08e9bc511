package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled so the
// package stays dependency-free. Counters and gauges render as single
// samples; histograms render as summaries (quantile-labelled samples
// plus _sum and _count) with the observed maximum as a companion
// <family>_max gauge.

// PromContentType is the Content-Type for the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

var histQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.95", 0.95},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// WritePrometheus renders the given registries in registration order.
// Metrics sharing a family name are grouped into one block (the format
// forbids interleaving families); duplicate series — same family and
// label set appearing twice across registries — are emitted once.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	var ms []*metric
	for _, r := range regs {
		if r == nil {
			continue
		}
		ms = append(ms, r.snapshot()...)
	}
	byFamily := make(map[string][]*metric, len(ms))
	var famOrder []string
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if seen[m.key()] {
			continue
		}
		seen[m.key()] = true
		if _, ok := byFamily[m.family]; !ok {
			famOrder = append(famOrder, m.family)
		}
		byFamily[m.family] = append(byFamily[m.family], m)
	}

	bw := bufio.NewWriter(w)
	for _, fam := range famOrder {
		group := byFamily[fam]
		kind := group[0].kind
		switch kind {
		case kindCounter:
			fmt.Fprintf(bw, "# TYPE %s counter\n", fam)
		case kindGauge, kindGaugeFunc:
			fmt.Fprintf(bw, "# TYPE %s gauge\n", fam)
		case kindHistogram:
			fmt.Fprintf(bw, "# TYPE %s summary\n", fam)
		}
		for _, m := range group {
			if m.kind != kind {
				continue // mixed-type family collision; drop rather than corrupt
			}
			switch m.kind {
			case kindCounter:
				writeSample(bw, fam, m.labels, strconv.FormatUint(m.c.Load(), 10))
			case kindGauge:
				writeSample(bw, fam, m.labels, strconv.FormatInt(m.g.Load(), 10))
			case kindGaugeFunc:
				writeSample(bw, fam, m.labels, strconv.FormatFloat(m.fn(), 'g', -1, 64))
			case kindHistogram:
				for _, hq := range histQuantiles {
					writeSample(bw, fam, joinLabels(m.labels, `quantile="`+hq.label+`"`),
						strconv.FormatInt(m.h.Quantile(hq.q), 10))
				}
				writeSample(bw, fam+"_sum", m.labels, strconv.FormatInt(m.h.Sum(), 10))
				writeSample(bw, fam+"_count", m.labels, strconv.FormatUint(m.h.Count(), 10))
			}
		}
		if kind == kindHistogram {
			fmt.Fprintf(bw, "# TYPE %s_max gauge\n", fam)
			for _, m := range group {
				if m.kind != kindHistogram {
					continue
				}
				writeSample(bw, fam+"_max", m.labels, strconv.FormatInt(m.h.Max(), 10))
			}
		}
	}
	return bw.Flush()
}

func writeSample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	}
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// EscapeLabel escapes a label value for the exposition format.
func EscapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// ValidateExposition checks a text-format scrape: every line is a
// comment or a well-formed sample, TYPE lines precede their family's
// samples and appear at most once, and no series (name plus label set)
// repeats. It is the expfmt-style line check the CI smoke job runs.
func ValidateExposition(b []byte) error {
	typed := make(map[string]bool)
	closed := make(map[string]bool) // families whose block has ended
	series := make(map[string]bool)
	lastFam := ""
	for ln, line := range strings.Split(string(b), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "TYPE" && f[1] != "HELP") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if f[1] == "TYPE" {
				fam := f[2]
				if typed[fam] {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, fam)
				}
				if closed[fam] {
					return fmt.Errorf("line %d: family %s reopened", lineNo, fam)
				}
				typed[fam] = true
				if lastFam != "" && lastFam != fam {
					closed[lastFam] = true
				}
				lastFam = fam
			}
			continue
		}
		name, labels, value, ok := splitSample(line)
		if !ok {
			return fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: bad value %q", lineNo, value)
		}
		key := name + "{" + labels + "}"
		if series[key] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		series[key] = true
		fam := familyOf(name)
		if closed[fam] && fam != lastFam {
			return fmt.Errorf("line %d: family %s interleaved", lineNo, fam)
		}
		if lastFam != "" && fam != lastFam {
			closed[lastFam] = true
		}
		lastFam = fam
	}
	return nil
}

// familyOf strips the summary suffixes so _sum/_count lines group with
// their family.
func familyOf(name string) string {
	for _, suf := range []string{"_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func splitSample(line string) (name, labels, value string, ok bool) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", "", false
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		i := strings.IndexByte(rest, ' ')
		if i < 0 {
			return "", "", "", false
		}
		name = rest[:i]
		rest = strings.TrimSpace(rest[i+1:])
	}
	if name == "" || !validMetricName(name) {
		return "", "", "", false
	}
	// rest may be "value" or "value timestamp"
	f := strings.Fields(rest)
	if len(f) < 1 || len(f) > 2 {
		return "", "", "", false
	}
	return name, labels, f[0], true
}

func validMetricName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}
