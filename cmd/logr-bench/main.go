// Command logr-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	logr-bench -exp table1                      one experiment
//	logr-bench -exp all -scale medium           everything at the bench scale
//	logr-bench -exp fig2 -csv out/              also write out/fig2.csv
//
// Experiments: table1, fig2, fig3, fig4, fig5, table2, fig6, fig7 (alias of
// fig6 — same traces), fig8, fig9, all. Each id names the paper artifact
// it regenerates; the drivers live in internal/experiments.
// Scales: small, medium, paper.
//
// Performance is measured by the benchmark harness in bench/
// (`bash bench/run.sh`), not by this program.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"logr/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table2, fig2..fig9, all)")
	scaleName := flag.String("scale", "small", "small | medium | paper")
	csvDir := flag.String("csv", "", "directory for CSV series (created if missing)")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.Small
	case "medium":
		scale = experiments.Medium
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "logr-bench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "logr-bench:", err)
			os.Exit(1)
		}
	}

	csvOut := func(name string, write func(f *os.File) error) error {
		if *csvDir == "" {
			return nil
		}
		path := filepath.Join(*csvDir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("(csv written to %s)\n", path)
		return nil
	}

	run := func(id string) error {
		fmt.Printf("=== %s (scale %s) ===\n", id, *scaleName)
		switch id {
		case "table1":
			fmt.Print(experiments.Table1(scale))
		case "table2":
			fmt.Print(experiments.Table2(scale))
		case "fig2":
			pts, err := experiments.Figure2(scale)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure2(pts))
			if err := csvOut("fig2", func(f *os.File) error { return experiments.WriteFigure2CSV(f, pts) }); err != nil {
				return err
			}
		case "fig3":
			pts, err := experiments.Figure3(scale, 10000)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure3(pts))
			if err := csvOut("fig3", func(f *os.File) error { return experiments.WriteFigure3CSV(f, pts) }); err != nil {
				return err
			}
		case "fig4":
			r, err := experiments.Figure4(scale)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure4(r))
			if err := csvOut("fig4", func(f *os.File) error { return experiments.WriteFigure4CSV(f, r) }); err != nil {
				return err
			}
		case "fig5":
			pts, err := experiments.Figure5(scale)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure5(pts))
			if err := csvOut("fig5", func(f *os.File) error { return experiments.WriteFigure5CSV(f, pts) }); err != nil {
				return err
			}
		case "fig6", "fig7":
			r, err := experiments.Figure67(scale)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure67(r))
			if err := csvOut("fig67", func(f *os.File) error { return experiments.WriteFigure67CSV(f, r) }); err != nil {
				return err
			}
		case "fig8":
			r, err := experiments.Figure8(scale)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure8(r))
			if err := csvOut("fig8", func(f *os.File) error { return experiments.WriteFigure8CSV(f, r) }); err != nil {
				return err
			}
		case "fig9":
			r, err := experiments.Figure9(scale)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFigure9(r))
			if err := csvOut("fig9", func(f *os.File) error { return experiments.WriteFigure9CSV(f, r) }); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		fmt.Println()
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6", "fig8", "fig9"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintln(os.Stderr, "logr-bench:", err)
			os.Exit(1)
		}
	}
}
