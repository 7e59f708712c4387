package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareFiles reads two artifacts and writes their comparison to w.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	var arts [2]*Artifact
	for i, path := range []string{oldPath, newPath} {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		arts[i] = new(Artifact)
		if err := json.Unmarshal(b, arts[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return compare(w, arts[0], arts[1])
}

// compare writes one row per benchmark and unit that both artifacts
// hold: the old and new medians, new/old, and a verdict. A change is
// called ("lower" or "higher") only when both sides have n >= 3 and
// their [min, max] ranges do not overlap; otherwise the verdict says
// why not ("overlap" or "n<3"). Rows are grouped by unit, B/op first,
// then allocs/op and ns/op, then the custom units by name; within a unit
// they keep the new artifact's order. Benchmarks that only one side
// holds are listed after the table.
func compare(w io.Writer, old, cur *Artifact) error {
	type key struct{ pkg, name string }
	olds := make(map[key]Result)
	for _, r := range old.Results {
		olds[key{r.Pkg, r.Name}] = r
	}
	type row struct {
		unit     string
		o, n     Result
		position int
	}
	var rows []row
	var onlyNew []Result
	seen := make(map[key]bool)
	for i, n := range cur.Results {
		k := key{n.Pkg, n.Name}
		seen[k] = true
		o, ok := olds[k]
		if !ok {
			onlyNew = append(onlyNew, n)
			continue
		}
		for unit := range values(n) {
			if _, ok := values(o)[unit]; ok {
				rows = append(rows, row{unit, o, n, i})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		ri, rj := unitRank(rows[i].unit), unitRank(rows[j].unit)
		if ri != rj {
			return ri < rj
		}
		if rows[i].unit != rows[j].unit {
			return rows[i].unit < rows[j].unit
		}
		return rows[i].position < rows[j].position
	})

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "unit\tpkg\tbenchmark\told\tnew\tnew/old\tchange")
	for _, r := range rows {
		ov, nv := values(r.o)[r.unit], values(r.n)[r.unit]
		ratio := "-"
		if ov != 0 {
			ratio = fmt.Sprintf("%.3f", nv/ov)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%s\t%s\n", r.unit, r.n.Pkg, r.n.Name, ov, nv, ratio, verdict(r.o, r.n, r.unit))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range old.Results {
		if !seen[key{r.Pkg, r.Name}] {
			fmt.Fprintf(w, "only in old: %s %s\n", r.Pkg, r.Name)
		}
	}
	for _, r := range onlyNew {
		fmt.Fprintf(w, "only in new: %s %s\n", r.Pkg, r.Name)
	}
	return nil
}

// values returns a result's median per unit, ns/op included.
func values(r Result) map[string]float64 {
	vs := map[string]float64{"ns/op": r.NsPerOp}
	for unit, v := range r.Metrics {
		vs[unit] = v
	}
	return vs
}

// verdict calls a change only when both sides ran at least three times
// and the new runs' range lies wholly on one side of the old runs'.
func verdict(o, n Result, unit string) string {
	if o.N < 3 || n.N < 3 {
		return "n<3"
	}
	switch {
	case n.Max[unit] < o.Min[unit]:
		return "lower"
	case n.Min[unit] > o.Max[unit]:
		return "higher"
	}
	return "overlap"
}

// unitRank orders the table: allocation first, then time, then the rest.
func unitRank(unit string) int {
	switch unit {
	case "B/op":
		return 0
	case "allocs/op":
		return 1
	case "ns/op":
		return 2
	}
	return 3
}
