package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("Title", "name", "value")
	tbl.Row("short", 1)
	tbl.Row("much-longer-name", 123456)
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	// Header, separator, two rows.
	if len(lines) != 5 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	// All data lines share a width (trailing padding aside).
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[2], "---") {
		t.Error("header/separator malformed")
	}
	if !strings.Contains(lines[4], "much-longer-name") {
		t.Error("row content missing")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{0.0001, "1.000e-04"},
		{0.5, "0.5000"},
		{150, "150.0"},
		{2.5e7, "2.500e+07"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	if FormatFloat(math.NaN()) != "NaN" {
		t.Error("NaN formatting")
	}
}

func TestTableFormatsFloats(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.Row(0.000123)
	if !strings.Contains(tbl.String(), "1.230e-04") {
		t.Errorf("float not formatted: %q", tbl.String())
	}
}

func TestSeriesBars(t *testing.T) {
	s := NewSeries("S")
	s.Point("a", 1).Point("bb", 2).Point("ccc", 0)
	if s.Len() != 3 {
		t.Fatal("Len")
	}
	out := s.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Max value gets the longest bar; zero gets none.
	if strings.Count(lines[2], "#") <= strings.Count(lines[1], "#") {
		t.Error("bars not proportional")
	}
	if strings.Count(lines[3], "#") != 0 {
		t.Error("zero value should have no bar")
	}
}

func TestSeriesAllZero(t *testing.T) {
	s := NewSeries("z")
	s.Point("a", 0).Point("b", 0)
	out := s.String()
	if strings.Count(out, "#") != 0 {
		t.Error("all-zero series drew bars")
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.1234) != "12.3%" {
		t.Errorf("Percent = %q", Percent(0.1234))
	}
}

func TestCSVExport(t *testing.T) {
	var buf strings.Builder
	err := CSV(&buf, []string{"a", "b"}, []float64{1, 2, 3}, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,0.5\n2,\n3,\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
	if err := CSV(&buf, []string{"a"}, nil, nil); err == nil {
		t.Error("header/column mismatch accepted")
	}
}
