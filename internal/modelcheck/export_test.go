package modelcheck

// ByID returns the findings carrying the given check ID.
func (r *Report) ByID(id string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.ID == id {
			out = append(out, f)
		}
	}
	return out
}

// Count returns the number of findings at exactly the given severity.
func (r *Report) Count(sev Severity) int {
	c := 0
	for _, f := range r.Findings {
		if f.Sev == sev {
			c++
		}
	}
	return c
}
