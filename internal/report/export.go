package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV writes labeled numeric series as a CSV file: one column per
// series, one row per index. Series of different lengths are padded
// with empty cells. It backs the experiment drivers' machine-readable
// output (e.g. convergence traces for external plotting).
func CSV(w io.Writer, header []string, columns ...[]float64) error {
	if len(header) != len(columns) {
		return fmt.Errorf("report: %d headers for %d columns", len(header), len(columns))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	rows := 0
	for _, c := range columns {
		if len(c) > rows {
			rows = len(c)
		}
	}
	rec := make([]string, len(columns))
	for r := 0; r < rows; r++ {
		for i, c := range columns {
			if r < len(c) {
				rec[i] = strconv.FormatFloat(c[r], 'g', -1, 64)
			} else {
				rec[i] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
