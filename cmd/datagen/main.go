// Command datagen materializes a benchmark database and writes it as CSV
// files (one per table) — useful for inspecting the synthetic data, loading
// it into a real DBMS, or diffing generator changes.
//
// Usage:
//
//	datagen -bench ssb|tpcds|tpcch|micro [-scale F] [-seed N] [-out DIR] [-stats]
//
// With -stats, only a per-table summary (rows, width, per-column distinct
// counts) is printed and no files are written.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/datagen"
	"partadvisor/internal/exec"
	"partadvisor/internal/relation"
)

func main() {
	var (
		benchName = flag.String("bench", "ssb", "benchmark: ssb, tpcds, tpcch, tpch or micro")
		scale     = flag.Float64("scale", 1, "data scale (1 = repro scale)")
		seed      = flag.Int64("seed", 1, "random seed")
		outDir    = flag.String("out", "data", "output directory for CSV files")
		statsOnly = flag.Bool("stats", false, "print table statistics instead of writing files")
	)
	flag.Parse()
	if err := datagen.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	b := benchmarks.ByName(*benchName)
	if b == nil {
		fmt.Fprintf(os.Stderr, "datagen: unknown benchmark %q\n", *benchName)
		os.Exit(2)
	}

	data := b.Generate(*scale, *seed)
	names := make([]string, 0, len(data))
	for n := range data {
		names = append(names, n)
	}
	sort.Strings(names)

	if *statsOnly {
		cat := exec.BuildCatalog(b.Schema, data)
		for _, name := range names {
			ts := cat.MustTable(name)
			fmt.Printf("%-24s %8d rows  %3d B/row\n", name, ts.Rows, ts.RowWidth)
			cols := make([]string, 0, len(ts.Columns))
			for c := range ts.Columns {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			for _, c := range cols {
				cs := ts.Columns[c]
				fmt.Printf("    %-24s distinct %8d  range [%d, %d]\n", c, cs.Distinct, cs.Min, cs.Max)
			}
		}
		return
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	for _, name := range names {
		path := filepath.Join(*outDir, name+".csv")
		if err := writeCSV(path, data[name]); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", path, data[name].Rows())
	}
}

func writeCSV(path string, rel *relation.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(rel.Columns()); err != nil {
		return err
	}
	cols := make([][]int64, rel.NumCols())
	for i, c := range rel.Columns() {
		cols[i] = rel.Col(c)
	}
	row := make([]string, rel.NumCols())
	for r := 0; r < rel.Rows(); r++ {
		for c := range cols {
			row[c] = strconv.FormatInt(cols[c][r], 10)
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
