package soc

import (
	"fmt"

	"repro/internal/netlist"
)

// IsConfigReg reports whether a DFF node belongs to the configuration
// register population.
func (m *MPU) IsConfigReg(id netlist.NodeID) bool {
	for _, name := range m.ConfigRegNames() {
		for _, bit := range m.Groups[name] {
			if bit == id {
				return true
			}
		}
	}
	return false
}

// ConfigRegNames returns the names of the MPU's configuration register
// words (region base/limit/perm plus lockdown): the registers whose
// content is defined by system configuration rather than by in-flight
// computation. The analytical evaluator treats faults confined to these
// words closed-form.
func (m *MPU) ConfigRegNames() []string {
	var names []string
	for i := 0; i < m.Config.Regions; i++ {
		names = append(names,
			fmt.Sprintf("cfg_base%d", i),
			fmt.Sprintf("cfg_limit%d", i),
			fmt.Sprintf("cfg_perm%d", i))
	}
	names = append(names, "lockdown")
	return names
}
