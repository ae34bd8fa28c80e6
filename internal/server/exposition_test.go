//go:build linux

package server

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qtls/internal/flight"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// expositionShape reduces a /metrics page and a /stub_status page to what
// a dashboard depends on, values stripped: every # TYPE line and every
// series name with its labels, sorted, then the registry counter names
// /stub_status lists.
func expositionShape(metricsPage, statusPage string) string {
	var series []string
	seen := map[string]bool{}
	for _, line := range strings.Split(metricsPage, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !strings.HasPrefix(line, "# TYPE ") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		if !seen[line] {
			seen[line] = true
			series = append(series, line)
		}
	}
	sort.Strings(series)
	var counters []string
	for _, line := range strings.Split(statusPage, "\n") {
		// The registry counters are the page's two-field "name value" lines.
		if f := strings.Fields(line); len(f) == 2 && f[1] != "" && f[1][0] >= '0' && f[1][0] <= '9' {
			counters = append(counters, f[0])
		}
	}
	sort.Strings(counters)
	return "# /metrics\n" + strings.Join(series, "\n") + "\n# /stub_status\n" + strings.Join(counters, "\n") + "\n"
}

// TestMetricsExpositionGolden pins the names a scrape exposes under a
// fixed, fully wired configuration: two QTLS workers on a two-device
// conn-hash pool with the health manager on, span tracing and the flight
// recorder on, after a few handshakes. A series that appears, vanishes or
// changes its labels shows as a diff against testdata/metrics.golden
// (QTLS_UPDATE_GOLDEN=1 re-pins it, only on purpose).
func TestMetricsExpositionGolden(t *testing.T) {
	spec := qat.DeviceSpec{Endpoints: 2, EnginesPerEndpoint: 4, RingCapacity: 128}
	pool := qat.PoolOf(qat.NewDevice(spec), qat.NewDevice(spec))
	t.Cleanup(pool.Close)
	run := ConfigQTLS
	run.Placement = offload.PlacementConnHash
	run.Lifecycle = true
	srv, _, _ := startFlightServer(t, run, 2, pool, flight.Config{})
	for i := 0; i < 4; i++ {
		fetchPath(t, srv.Addr(), "/1024")
	}
	got := expositionShape(fetchPath(t, srv.Addr(), "/metrics"), fetchPath(t, srv.Addr(), "/stub_status"))

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("QTLS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition shape differs from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
