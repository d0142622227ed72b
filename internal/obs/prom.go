package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// This file implements the Prometheus text exposition format for the
// registry (served at /metrics by obs/httpserv) and a small validator
// for it (used by `gemfi validate prom` and by the CLI tests to assert
// the served payload parses).

// promName sanitizes a registry metric name into the Prometheus name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*, mapping '.' (the registry's
// namespace separator) and every other invalid rune to '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + len("gemfi_"))
	b.WriteString("gemfi_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promValue renders a sample value (Prometheus accepts Go float syntax
// plus +Inf/-Inf/NaN).
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WriteProm renders the registry in the Prometheus text exposition
// format (version 0.0.4): every counter as a counter family, gauges
// and pull-collectors as gauges, and histograms as cumulative
// le-bucket families with _sum and _count. Output is deterministic
// (same ordering guarantees as Snapshot). A nil registry writes
// nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, m := range r.Snapshot() {
		name := promName(m.Name)
		switch m.Kind {
		case "histogram":
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			var cum uint64
			if m.Hist != nil {
				for i, b := range m.Hist.Buckets {
					cum += b
					// OpenMetrics-style exemplar suffix: a bucket with a
					// recorded sample trace ID links to that span tree.
					ex := ""
					if i < len(m.Hist.Exemplars) && m.Hist.Exemplars[i] != "" {
						ex = fmt.Sprintf(" # {trace_id=%q} %s",
							m.Hist.Exemplars[i], promValue(m.Hist.BucketHi[i]))
					}
					if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n",
						name, promValue(m.Hist.BucketHi[i]), cum, ex); err != nil {
						return err
					}
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, m.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, promValue(m.Value)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", name, m.Count); err != nil {
				return err
			}
		case "counter":
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n",
				name, name, promValue(m.Value)); err != nil {
				return err
			}
		default: // gauge, func
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n",
				name, name, promValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

var (
	// The optional trailing group accepts an OpenMetrics exemplar
	// (" # {label=\"v\"} value"), which WriteProm emits on histogram
	// bucket lines carrying a sample trace ID.
	promSampleRe = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*,?\})?\s+(\S+)(\s+-?\d+)?( # \{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"\} \S+( \d+(\.\d+)?)?)?\s*$`)
	promTypeRe = regexp.MustCompile(
		`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// ValidateProm checks a Prometheus text exposition stream: sample
// lines must match the exposition grammar with parseable values, and
// any family declared with "# TYPE" may be declared only once. It
// returns the number of sample lines; the error identifies the first
// offending physical line. This is the checker CI runs against a live
// /metrics scrape.
func ValidateProm(r io.Reader) (int, error) {
	types := make(map[string]string)
	samples := 0
	_, err := ScanLines(r, 4<<20, func(lineNo int, raw []byte) error {
		line := string(raw)
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# TYPE ") {
				mt := promTypeRe.FindStringSubmatch(line)
				if mt == nil {
					return fmt.Errorf("prom: line %d: malformed TYPE line %q", lineNo, line)
				}
				if _, dup := types[mt[1]]; dup {
					return fmt.Errorf("prom: line %d: duplicate TYPE for family %q", lineNo, mt[1])
				}
				types[mt[1]] = mt[2]
			}
			// # HELP and plain comments pass through.
			return nil
		}
		ms := promSampleRe.FindStringSubmatch(line)
		if ms == nil {
			return fmt.Errorf("prom: line %d: malformed sample line %q", lineNo, line)
		}
		val := ms[3]
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("prom: line %d: bad value %q: %v", lineNo, val, err)
			}
		}
		samples++
		return nil
	})
	if err != nil {
		return samples, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("prom: no samples found")
	}
	return samples, nil
}
