// Command cgrametrics validates and summarizes the instrumentation
// artifacts the toolchain produces. In its default mode every line of
// each input must be one JSON metric object with a non-empty name and a
// known kind; anything else — truncated JSON, an event object, a stray
// field — fails the run, which is what lets scripts/ci.sh use this as
// the artifact gate. Valid files print as a two-column counter table.
//
// Two further modes serve the telemetry pipeline (event files are
// validated by cgratrace, which rejects a malformed span structure on
// load):
//
//   - -scrape URL fetches a /metrics endpoint and validates the body as
//     Prometheus text exposition, printing it on success;
//   - -get URL fetches any URL and prints the body, failing on non-200 —
//     the curl-free probe scripts/ci.sh uses against /healthz.
//
// Usage:
//
//	go run ./cmd/cgrametrics out/metrics.json [more.json ...]
//	go run ./cmd/cgrametrics -scrape http://127.0.0.1:9090/metrics
//	go run ./cmd/cgrametrics -get http://127.0.0.1:9090/healthz
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	scrapeURL := flag.String("scrape", "", "GET this URL and validate the body as Prometheus text exposition")
	getURL := flag.String("get", "", "GET this URL and print the body (fails on non-200)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cgrametrics <metrics.json> ...")
		fmt.Fprintln(os.Stderr, "       cgrametrics -scrape <url> | -get <url>")
		flag.PrintDefaults()
	}
	flag.Parse()
	var err error
	switch {
	case *scrapeURL != "":
		err = runScrape(os.Stdout, *scrapeURL)
	case *getURL != "":
		err = runGet(os.Stdout, *getURL)
	case flag.NArg() == 0:
		flag.Usage()
		os.Exit(2)
	default:
		err = run(os.Stdout, flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgrametrics:", err)
		os.Exit(1)
	}
}

// run validates each file and prints its metric table. The first
// malformed file aborts the run with an error naming file and line.
func run(w io.Writer, paths []string) error {
	for _, path := range paths {
		ms, err := readMetrics(path)
		if err != nil {
			return err
		}
		rows := make([]trace.MetricRow, 0, len(ms))
		for _, m := range ms {
			rows = append(rows, trace.MetricRow{Name: m.Name, Value: m.Display()})
		}
		title := fmt.Sprintf("%s: %d metrics", filepath.Base(path), len(ms))
		if _, err := fmt.Fprint(w, trace.Metrics(title, rows)); err != nil {
			return err
		}
	}
	return nil
}

// runGet fetches a URL and prints the body; any transport error or
// non-200 status fails.
func runGet(w io.Writer, url string) error {
	body, err := fetch(url)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// runScrape fetches a /metrics URL, validates the body as Prometheus
// text exposition, and prints it.
func runScrape(w io.Writer, url string) error {
	body, err := fetch(url)
	if err != nil {
		return err
	}
	n, err := validatePrometheus(body)
	if err != nil {
		return fmt.Errorf("%s: %v", url, err)
	}
	if n == 0 {
		return fmt.Errorf("%s: exposition has no samples", url)
	}
	_, err = w.Write(body)
	return err
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %s\n%s", url, resp.Status, body)
	}
	return body, nil
}

// validatePrometheus checks a text exposition page line by line: TYPE
// comments must be well-formed, every sample line must be "name value"
// or "name{labels} value" with a parseable number, and no metric name
// may get two TYPE declarations. Returns the sample count.
func validatePrometheus(body []byte) (int, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	typed := map[string]bool{}
	samples := 0
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return 0, fmt.Errorf("line %d: malformed TYPE comment: %q", ln, line)
			}
			name := parts[2]
			if typed[name] {
				return 0, fmt.Errorf("line %d: duplicate TYPE for %s", ln, name)
			}
			switch parts[3] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return 0, fmt.Errorf("line %d: unknown metric type %q", ln, parts[3])
			}
			typed[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample: name[{labels}] value
		rest := line
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			j := strings.IndexByte(rest, '}')
			if j < i {
				return 0, fmt.Errorf("line %d: unbalanced labels: %q", ln, line)
			}
			rest = rest[:i] + rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return 0, fmt.Errorf("line %d: malformed sample: %q", ln, line)
		}
		if !validMetricName(fields[0]) {
			return 0, fmt.Errorf("line %d: illegal metric name %q", ln, fields[0])
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return 0, fmt.Errorf("line %d: sample value %q is not a number", ln, fields[1])
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return samples, nil
}

// validMetricName checks the Prometheus metric-name charset.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_' || c == ':':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// readMetrics parses one JSONL metrics file strictly: unknown fields,
// trailing garbage, a missing name, or an unrecognized kind all reject
// the file, so a corrupted or mis-routed artifact cannot pass CI.
func readMetrics(path string) ([]obs.MetricValue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []obs.MetricValue
	sc := bufio.NewScanner(bytes.NewReader(data))
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var m obs.MetricValue
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("%s:%d: malformed metric line: %v", path, ln, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("%s:%d: trailing data after metric object", path, ln)
		}
		if m.Name == "" {
			return nil, fmt.Errorf("%s:%d: metric has no name", path, ln)
		}
		switch m.Kind {
		case obs.KindCounter, obs.KindGauge, obs.KindHistogram:
		default:
			return nil, fmt.Errorf("%s:%d: metric %s has unknown kind %q", path, ln, m.Name, m.Kind)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no metrics (empty file)", path)
	}
	return out, nil
}
