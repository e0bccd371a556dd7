// Command samrepro regenerates the paper's tables and figures (and the
// repository's extension experiments) from the simulator.
//
// Usage:
//
//	samrepro [-exp all|tables|figures|extensions|<id>]
//	         [-runs N] [-seed S] [-parallel P] [-csv] [-o dir]
//	         [-progress] [-log-format text|json]
//	         [-cpuprofile file] [-memprofile file]
//
// -progress reports run completion (runs/s, ETA) on stderr; it observes the
// worker pool without influencing it, so stdout stays bitwise-identical with
// the flag on or off.
//
// Runs fan out over a worker pool (-parallel, default all cores); output is
// bitwise-identical for every parallelism level, including -parallel 1,
// because each run's randomness derives from its grid coordinates and
// results merge in grid order (see internal/runner).
//
// Experiment ids: table1, table2, fig5..fig15, detection, leash, protocols,
// rushing, loss, mobility, blackhole, adaptive, roc (see -list).
//
// Each experiment prints a markdown table by default, or CSV with -csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"samnet/internal/cli"
	"samnet/internal/experiment"
	"samnet/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id, or 'all'")
		runs      = flag.Int("runs", 10, "simulation runs per condition")
		seed      = flag.Uint64("seed", 2005, "master seed")
		parallel  = flag.Int("parallel", 0, "worker pool size (0 = all cores, 1 = serial)")
		csv       = flag.Bool("csv", false, "emit CSV instead of markdown")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		outDir    = flag.String("o", "", "also write each experiment to <dir>/<id>.md (or .csv)")
		progress  = flag.Bool("progress", false, "report run progress (runs/s, ETA) on stderr")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	logger, err := cli.NewLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "samrepro:", err)
		os.Exit(2)
	}

	if *list {
		for _, d := range experiment.Registry {
			fmt.Printf("%-10s %-10s %s\n", d.ID, d.Kind, d.Title)
		}
		return
	}

	stopProfiles, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	defer stopProfiles()

	cfg := experiment.Config{Runs: *runs, Seed: *seed, Workers: *parallel}
	var defs []experiment.Definition
	switch *exp {
	case "all":
		defs = experiment.Registry
	case "tables", "figures", "extensions":
		kind := strings.TrimSuffix(*exp, "s")
		for _, d := range experiment.Registry {
			if d.Kind == kind {
				defs = append(defs, d)
			}
		}
	default:
		d, err := experiment.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defs = []experiment.Definition{d}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for i, d := range defs {
		if i > 0 {
			fmt.Println()
		}
		// Per-experiment progress: the hook observes run completion only
		// (counts and wall clock), so the artifact on stdout is
		// bitwise-identical whether or not -progress is set.
		runCfg := cfg
		if *progress {
			runCfg.Progress = obs.NewProgress(os.Stderr, d.ID, 0)
		}
		begin := time.Now()
		art := d.Run(runCfg)
		if pr, ok := runCfg.Progress.(*obs.Progress); ok && pr != nil {
			pr.Finish()
		}
		logger.Info("experiment complete", "id", d.ID, "elapsed", time.Since(begin).Round(time.Millisecond).String())
		var buf strings.Builder
		for j, t := range art.Tables {
			if j > 0 {
				buf.WriteString("\n")
			}
			if *csv {
				buf.WriteString(t.CSV())
			} else {
				buf.WriteString(t.Markdown())
			}
		}
		fmt.Print(buf.String())
		if *outDir != "" {
			ext := ".md"
			if *csv {
				ext = ".csv"
			}
			path := filepath.Join(*outDir, d.ID+ext)
			if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
