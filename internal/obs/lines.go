// Shared line reader for the JSONL/text validators. Every validator in
// this package (spans, Prometheus text) and the CLI's
// -validate-* flags used to carry its own scanner loop with subtly
// different line accounting — record counts vs physical lines, torn
// tails reported without a position. ScanLines is the single
// implementation: physical 1-based line numbers, blank lines skipped,
// oversized or torn-tail lines reported at the line they occur on.
package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// ScanLines drives fn over every non-blank line of r, reporting
// physical 1-based line numbers. maxLine bounds the scanner buffer; a
// line past it (the classic torn tail of a crashed writer) fails with
// the line number instead of a bare bufio error. fn's error aborts the
// scan. Returns the number of lines fn accepted.
func ScanLines(r io.Reader, maxLine int, fn func(lineNo int, line []byte) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	lineNo, n := 0, 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if err := fn(lineNo, raw); err != nil {
			return n, err
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return n, nil
}
