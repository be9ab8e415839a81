package figures

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Fig6Row is one bar of Figure 6: an application on a storage
// configuration, normalized to its in-memory baseline.
type Fig6Row struct {
	Measurement
	// Normalized is elapsed / in-memory elapsed (the figure's y-axis).
	Normalized float64
}

// Fig6Result carries all bars, in app-major order (in-memory, SSD, disk per
// app). The same runs carry the Figure 7 breakdowns (Fig7Result).
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 regenerates Figure 6 (and the measurements behind Figure 7): each
// application runs in-memory, on the SSD tree and on the disk tree.
func Fig6(o Options) (*Fig6Result, error) {
	o, err := o.norm()
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	for _, app := range Apps {
		var inMem Measurement
		for _, store := range []Storage{InMemory, SSD, HDD} {
			rt := o.newRuntime(store, true)
			m, err := runApp(app, store, rt, o)
			if err != nil {
				return nil, err
			}
			if store == InMemory {
				inMem = m
			}
			res.Rows = append(res.Rows, Fig6Row{
				Measurement: m,
				Normalized:  float64(m.Elapsed) / float64(inMem.Elapsed),
			})
		}
	}
	return res, nil
}

// Row returns the row for (app, storage).
func (r *Fig6Result) Row(app App, store Storage) Fig6Row {
	for _, row := range r.Rows {
		if row.App == app && row.Storage == store {
			return row
		}
	}
	panic(fmt.Sprintf("figures: no Fig6 row for %v/%v", app, store))
}

// String renders the figure as the table of normalized runtimes the paper
// plots.
func (r *Fig6Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: normalized runtime (in-memory = 1.0)\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s %12s\n", "app", "in-memory", "ssd", "disk")
	for _, app := range Apps {
		fmt.Fprintf(&sb, "%-14s %12.2f %12.2f %12.2f\n", app,
			r.Row(app, InMemory).Normalized,
			r.Row(app, SSD).Normalized,
			r.Row(app, HDD).Normalized)
	}
	return sb.String()
}

// Fig7Result presents the Figure 6 runs as Figure 7: per-category shares
// of execution on the 2-level APU tree, for disk and SSD. It reads the
// breakdowns a Fig6 result already carries, so Figure 7 never re-runs the
// workloads.
type Fig7Result struct {
	Fig6 *Fig6Result
}

// Share returns the fraction of the busy sum a category takes for (app,
// storage).
func (r *Fig7Result) Share(app App, store Storage, c trace.Category) float64 {
	row := r.Fig6.Row(app, store)
	return row.Breakdown.Fraction(c)
}

// String renders the stacked-bar data of Figure 7.
func (r *Fig7Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 7: execution breakdown, 2-level APU tree (% of busy time)\n")
	fmt.Fprintf(&sb, "%-14s %-6s", "app", "store")
	for _, c := range trace.Categories {
		fmt.Fprintf(&sb, " %9s", c)
	}
	sb.WriteByte('\n')
	for _, app := range Apps {
		for _, store := range []Storage{HDD, SSD} {
			fmt.Fprintf(&sb, "%-14s %-6s", app, store)
			row := r.Fig6.Row(app, store)
			for _, c := range trace.Categories {
				fmt.Fprintf(&sb, " %8.1f%%", 100*row.Breakdown.Fraction(c))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
