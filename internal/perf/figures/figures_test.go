package figures

import (
	"strings"
	"testing"
)

func seriesByName(t *testing.T, tab Table, name string) Series {
	t.Helper()
	for _, s := range tab.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: no series %q", tab.ID, name)
	return Series{}
}

func checkShape(t *testing.T, tab Table, wantSeries int) {
	t.Helper()
	if len(tab.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", tab.ID, len(tab.Series), wantSeries)
	}
	for _, s := range tab.Series {
		if len(s.Values) != len(tab.Columns) {
			t.Fatalf("%s/%s: %d values for %d columns", tab.ID, s.Name, len(s.Values), len(tab.Columns))
		}
	}
	out := tab.Format()
	if !strings.Contains(out, tab.ID) || !strings.Contains(out, tab.Columns[0]) {
		t.Fatalf("%s: Format output incomplete:\n%s", tab.ID, out)
	}
}

// Table 1 must match the paper exactly — it is measured on the real
// minitls stack.
func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	checkShape(t, tab, 4)
	want := map[string][2]float64{ // RSA, ECC (PRF/HKDF checked separately)
		"1.2 TLS-RSA":     {1, 0},
		"1.2 ECDHE-RSA":   {1, 2},
		"1.2 ECDHE-ECDSA": {0, 3},
		"1.3 ECDHE-RSA":   {1, 2},
	}
	for name, w := range want {
		s := seriesByName(t, tab, name)
		if s.Values[0] != w[0] || s.Values[1] != w[1] {
			t.Fatalf("%s: RSA/ECC = %v/%v, want %v/%v", name, s.Values[0], s.Values[1], w[0], w[1])
		}
	}
	// PRF/HKDF: exactly 4 for the 1.2 rows, > 4 for the 1.3 row.
	for _, name := range []string{"1.2 TLS-RSA", "1.2 ECDHE-RSA", "1.2 ECDHE-ECDSA"} {
		if v := seriesByName(t, tab, name).Values[2]; v != 4 {
			t.Fatalf("%s: PRF = %v, want 4", name, v)
		}
	}
	if v := seriesByName(t, tab, "1.3 ECDHE-RSA").Values[2]; v <= 4 {
		t.Fatalf("1.3: HKDF = %v, want > 4", v)
	}
}

func TestFig7aShape(t *testing.T) {
	t.Parallel() // owns its simulation, like the smoke subtests
	tab := Fig7a(Quick())
	checkShape(t, tab, 5)
	sw := seriesByName(t, tab, "SW")
	qtls := seriesByName(t, tab, "QTLS")
	// QTLS dominates SW at every worker count; the 8HT speedup is large
	// (paper: 9x).
	for i := range sw.Values {
		if qtls.Values[i] <= sw.Values[i] {
			t.Fatalf("col %s: QTLS %.0f <= SW %.0f", tab.Columns[i], qtls.Values[i], sw.Values[i])
		}
	}
	if ratio := qtls.Values[2] / sw.Values[2]; ratio < 6 {
		t.Fatalf("8HT QTLS/SW = %.1fx, want large (paper 9x)", ratio)
	}
}

func TestFig9aShape(t *testing.T) {
	t.Parallel() // owns its simulation, like the smoke subtests
	tab := Fig9a(Quick())
	checkShape(t, tab, 5)
	sw := seriesByName(t, tab, "SW")
	qs := seriesByName(t, tab, "QAT+S")
	qtls := seriesByName(t, tab, "QTLS")
	mid := 2 // 8 workers column
	if qs.Values[mid] >= sw.Values[mid] {
		t.Fatalf("QAT+S %.0f should lose to SW %.0f on abbreviated handshakes", qs.Values[mid], sw.Values[mid])
	}
	gain := qtls.Values[mid]/sw.Values[mid] - 1
	if gain < 0.15 || gain > 0.8 {
		t.Fatalf("QTLS gain %.0f%%, paper says 30-40%%", gain*100)
	}
}

func TestFig10Shape(t *testing.T) {
	t.Parallel() // owns its simulation, like the smoke subtests
	tab := Fig10(Quick())
	checkShape(t, tab, 5)
	sw := seriesByName(t, tab, "SW")
	qtls := seriesByName(t, tab, "QTLS")
	// 128KB column index 4: QTLS ≈ 2x SW.
	if qtls.Values[4] < 1.6*sw.Values[4] {
		t.Fatalf("128KB: QTLS %.1f vs SW %.1f, want ~2x", qtls.Values[4], sw.Values[4])
	}
	// Throughput grows with file size for QTLS.
	if qtls.Values[0] >= qtls.Values[4] {
		t.Fatalf("QTLS throughput should grow with file size: %v", qtls.Values)
	}
}

func TestFig12bShape(t *testing.T) {
	t.Parallel() // owns its simulation, like the smoke subtests
	tab := Fig12b(Quick())
	checkShape(t, tab, 3)
	slow := seriesByName(t, tab, "1ms")
	heur := seriesByName(t, tab, "Heuristic")
	// 1ms polling collapses at 16 clients, converges by 512.
	if slow.Values[0] > heur.Values[0]/2 {
		t.Fatalf("1ms at 16 clients %.1f should collapse vs heuristic %.1f", slow.Values[0], heur.Values[0])
	}
	last := len(slow.Values) - 1
	if slow.Values[last] < 0.7*heur.Values[last] {
		t.Fatalf("1ms should converge at 512 clients: %.1f vs %.1f", slow.Values[last], heur.Values[last])
	}
}

func TestByIDAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("want 14 experiments (1 table + 11 figures + blackbox + notify-parity), got %d", len(ids))
	}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%q) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestFormatValues(t *testing.T) {
	cases := map[float64]string{0: "0", 5.5: "5.50", 42: "42", 1234: "1.2K"}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{
		ID:      "x",
		Columns: []string{"a", "b"},
		Series:  []Series{{Name: "s1", Values: []float64{1, 2.5}}},
	}
	want := "series,a,b\ns1,1,2.5\n"
	if got := tab.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
