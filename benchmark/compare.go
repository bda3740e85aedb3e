package main

import (
	"fmt"
	"io"
	"sort"
)

// series gathers, per workload, every value a result file holds for each
// metric, in the order the runs were appended.
type series map[string]map[string][]float64

func endToEndSeries(f *resultFile) series {
	s := series{}
	for _, run := range f.Runs {
		for _, r := range run.Records {
			for _, v := range r.EndToEnd {
				if s[r.Workload] == nil {
					s[r.Workload] = map[string][]float64{}
				}
				s[r.Workload][v.Name] = append(s[r.Workload][v.Name], v.Value)
			}
		}
	}
	return s
}

// exactKey names one exact count: they repeat only for the same workload,
// seed and metric.
type exactKey struct {
	workload string
	seed     uint64
	metric   string
}

func exactCounts(f *resultFile) map[exactKey][]float64 {
	m := map[exactKey][]float64{}
	for _, run := range f.Runs {
		for _, r := range run.Records {
			for _, v := range r.PerLayer {
				if v.Exact {
					k := exactKey{r.Workload, r.Seed, v.Name}
					m[k] = append(m[k], v.Value)
				}
			}
		}
	}
	return m
}

// compareFiles prints one row per workload × end-to-end metric — both
// medians, the ratio with its base, each side's quartile spread, the
// bound and a verdict — then checks that every exact count the two files
// share is identical. It returns 1 when any row is worse, else 0.
func compareFiles(basePath, curPath string, out, errOut io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{basePath, curPath} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintln(errOut, "benchmark:", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(files[0], files[1], basePath, curPath, out)
}

func compareResults(base, cur *resultFile, baseName, curName string, out io.Writer) int {
	bs, cs := endToEndSeries(base), endToEndSeries(cur)
	fmt.Fprintf(out, "base = %s (%d runs), new = %s (%d runs)\n", baseName, len(base.Runs), curName, len(cur.Runs))
	fmt.Fprintf(out, "%-12s %-19s %12s %12s %-18s %7s %7s %6s  %s\n",
		"workload", "metric", "base median", "new median", "new/base", "spr.b", "spr.n", "bound", "verdict")
	worse, unresolved := 0, 0
	for _, w := range workloads() {
		for _, def := range endToEnd {
			b, c := bs[w.name][def.Name], cs[w.name][def.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bm, cm := median(b), median(c)
			bspr, bok := quartileSpread(b)
			cspr, cok := quartileSpread(c)
			floor, gateB, gateC := 0.0, bspr, cspr
			if def.Name == "setup_s" {
				// Set-up is a handful of runs per invocation: its spread is
				// printed but does not gate the row, only its median does.
				floor, gateB, gateC = setupFloorS, 0, 0
			}
			v := verdict(bm, cm, gateB, gateC, def.Bound, floor, def.Better)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			ratio := "n/a"
			if bm != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", cm/bm, bm)
			}
			fmt.Fprintf(out, "%-12s %-19s %12.4f %12.4f %-18s %7s %7s %5.0f%%  %s\n",
				w.name, def.Name, bm, cm, ratio, pct(bspr, bok), pct(cspr, cok), def.Bound*100, v)
		}
	}
	fmt.Fprintf(out, "%d worse, %d unresolved (spread wider than the bound)\n", worse, unresolved)

	// Exact counts: identical between the two files wherever both hold a
	// value for the same workload, seed and metric. A difference on the
	// same code is lost determinism; between two commits it is a change
	// in simulated behaviour, which the change should have announced.
	be, ce := exactCounts(base), exactCounts(cur)
	var keys []exactKey
	for k := range be {
		if _, ok := ce[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return a.metric < b.metric
	})
	differ := 0
	for _, k := range keys {
		all := append(append([]float64(nil), be[k]...), ce[k]...)
		for _, v := range all {
			if v != all[0] {
				differ++
				fmt.Fprintf(out, "exact count differs: %s seed %d %s: base %v, new %v\n",
					k.workload, k.seed, k.metric, be[k], ce[k])
				break
			}
		}
	}
	fmt.Fprintf(out, "%d exact counts shared, %d differ\n", len(keys), differ)
	if worse > 0 {
		return 1
	}
	return 0
}

func pct(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", v*100)
}
