// Command dbench runs the dependability-benchmark campaigns that
// regenerate the paper's tables and figures.
//
// Usage:
//
//	dbench [-scale quick|std|full] [-exp t3,f4,f5,t4,t5,f6,f7|all] [-parallel N]
//	dbench -exp t4 [-stats metrics.csv] [-awr] [-sample-interval 1s]
//	dbench -exp chaos [-crashpoints N] [-seed S] [-parallel N] [-warehouses W]
//	dbench -exp scale [-warehouses 1,2,4,8] [-parallel N]
//	dbench -exp logical [-scale quick|std|full] [-parallel N]
//	dbench -exp pareto [-budget 30s] [-pareto-grid F1G3T1,F100G3T10]
//	dbench -exp replica [-standbys 1,3] [-repl-mode sync,async] [-repl-link lan,wan]
//	dbench recover -scan [-seed S] [-warehouses W]
//
// Output is the paper-style text table for each experiment, preceded by
// per-run progress lines on stderr. -parallel sets the campaign worker
// count (0 = one worker per CPU, 1 = sequential); results are identical
// for every worker count.
//
// The chaos experiment is the crash-point exploration harness: N seeded
// crash points against a running TPC-C workload, each followed by
// recovery and invariant checks (see internal/chaos). It is not part of
// "all" — it validates the recovery machinery rather than regenerating a
// paper table — and exits non-zero if any invariant is violated. Its
// stdout report is byte-identical for a given -crashpoints/-seed pair.
// -warehouses sets its TPC-C scale (first value if a list is given).
//
// The scale experiment sweeps the warehouse count (-warehouses, default
// 1,2,4,8): per W, fault-free and shutdown-abort runs for the baseline
// and perf-tuned recovery configurations, producing a throughput-vs-W and
// recovery-time-vs-W table. Like chaos it is opt-in (not part of "all").
//
// -recovery-workers sets the parallel-recovery fan-out: for scale it is a
// comma-separated sweep (recovery time is reported per worker count, the
// serial baseline always included); every other experiment uses the
// largest listed count. Recovered state and counts are identical for
// every value — only recovery time changes.
//
// The logical experiment compares the two remedies for single-table
// operator faults — FLASHBACK TABLE (logical recovery from the redo
// stream, instance open) versus the paper's physical point-in-time
// restore — per fault class: recovery time, availability during the
// repair, and lost transactions. Opt-in (not part of "all").
//
// The pareto experiment maps the tpmC-vs-recovery-time frontier: per
// static configuration one fault-free run (tpmC) and one shutdown-abort
// run (measured recovery), then three runs of the self-tuning controller
// under the -budget recovery objective — steady load, steady load with a
// crash after the controller settles, and a shifting load with a late
// crash. The report shows each static point, whether it meets the
// budget, and the controller's throughput as a fraction of the best
// within-budget static configuration. Opt-in (not part of "all");
// byte-identical across reruns of the same scale and seed.
//
// The replica experiment measures managed failover on a streaming-
// replication cluster: continuous redo shipping to N stand-bys (sync
// commit waits for the stand-by acknowledgement; async does not), half
// the read-only TPC-C traffic served from a stand-by snapshot, a primary
// crash at the late instant, and promotion of the most-advanced stand-by
// as the remedy. Per sweep cell (-standbys × -repl-mode × -repl-link) it
// reports RPO (acknowledged commits lost, checked against the external
// ledger — 0 in sync mode), measured RTO alongside the MMON live
// estimate, end-user outage, and the stand-by read-routing counts.
// Opt-in (not part of "all").
//
// -stats/-awr enable the MMON workload repository on the campaign's
// first run (sampled every -sample-interval of virtual time): -stats
// exports the full metric time-series — counters, gauges (dirty-buffer
// depth, checkpoint lag, per-tablespace offline time) and the live
// recovery-time estimate — as CSV (or JSON for .json paths), -awr
// prints an AWR-style first-vs-last snapshot diff report. Both outputs
// are byte-identical across reruns of the same seed.
//
// `dbench recover -scan` demonstrates dictionary reconstruction from
// datafile headers: it builds a seeded TPC-C database, truncates the
// stock table, destroys the data dictionary, rebuilds it by scanning
// every datafile's metadata header, and verifies the metadata
// round-trips (every table rediscovered, FLASHBACK TABLE still working
// on the rebuilt dictionary). Exits non-zero on any mismatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dbench/internal/chaos"
	"dbench/internal/core"
	"dbench/internal/monitor"
	"dbench/internal/sim"
	"dbench/internal/standby"
	"dbench/internal/trace"
)

// experiments is the known -exp token set, in campaign order. "chaos" and
// "scale" are opt-in: valid tokens but not part of "all".
var experiments = []string{"t3", "f4", "f5", "t4", "t5", "f6", "f7", "chaos", "scale", "logical", "pareto", "replica"}

// parseList parses the comma-separated value of flag -name. Each token
// is normalised by norm, then parsed by parse; the first token parse
// rejects fails the whole list with "bad -name value %q: want <want>",
// quoting the normalised token.
func parseList[T any](name, list, want string, norm func(string) string, parse func(string) (T, bool)) ([]T, error) {
	var out []T
	for _, tok := range strings.Split(list, ",") {
		tok = norm(tok)
		v, ok := parse(tok)
		if !ok {
			return nil, fmt.Errorf("bad -%s value %q: want %s", name, tok, want)
		}
		out = append(out, v)
	}
	return out, nil
}

// asIs is the identity token normaliser: the token is quoted in errors
// exactly as given, and parse normalises it itself.
func asIs(tok string) string { return tok }

// positiveInt parses a positive integer token.
func positiveInt(tok string) (int, bool) {
	n, err := strconv.Atoi(tok)
	return n, err == nil && n >= 1
}

// replMode parses a commit-acknowledgement mode (sync, async).
func replMode(tok string) (standby.Mode, bool) {
	m, err := standby.ParseMode(strings.TrimSpace(strings.ToLower(tok)))
	return m, err == nil
}

// replLink parses a link profile name (lan, wan).
func replLink(tok string) (sim.LinkSpec, bool) {
	return core.LinkByName(strings.TrimSpace(strings.ToLower(tok)))
}

// configName normalises a Table 3 configuration name token.
func configName(tok string) string { return strings.ToUpper(strings.TrimSpace(tok)) }

func main() {
	args := os.Args[1:]
	var err error
	if len(args) > 0 && args[0] == "recover" {
		err = runRecover(args[1:])
	} else {
		err = run(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runRecover handles the `dbench recover` subcommand: currently only the
// -scan mode (catalog rebuild from datafile headers).
func runRecover(args []string) error {
	fs := flag.NewFlagSet("dbench recover", flag.ContinueOnError)
	scan := fs.Bool("scan", false, "rebuild the data dictionary from datafile headers and verify the metadata round-trips")
	seed := fs.Int64("seed", 1, "workload seed (same seed = identical report)")
	warehouses := fs.Int("warehouses", 1, "TPC-C warehouse count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*scan {
		return fmt.Errorf("dbench recover: only -scan is supported")
	}
	if *warehouses < 1 {
		return fmt.Errorf("-warehouses must be >= 1 (got %d)", *warehouses)
	}
	rep, err := core.RunCatalogScan(*seed, *warehouses)
	if err != nil {
		return err
	}
	fmt.Print(core.FormatScan(rep))
	if !rep.OK() {
		return fmt.Errorf("recover -scan: metadata did not round-trip")
	}
	return nil
}

// parseExperiments validates a comma-separated -exp value against the
// known experiment set. An unknown or empty token is an error (a typo
// must not silently run nothing), listing the valid names.
func parseExperiments(list string) (map[string]bool, error) {
	valid := map[string]bool{"all": true}
	for _, e := range experiments {
		valid[e] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		tok := strings.TrimSpace(strings.ToLower(e))
		if !valid[tok] {
			return nil, fmt.Errorf("unknown experiment %q: valid names are all, %s", tok, strings.Join(experiments, ", "))
		}
		want[tok] = true
	}
	return want, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbench", flag.ContinueOnError)
	scaleName := fs.String("scale", "std", "experiment scale: quick, std or full")
	expList := fs.String("exp", "all", "comma-separated experiments: t3,f4,f5,t4,t5,f6,f7 or all")
	parallel := fs.Int("parallel", 0, "campaign workers: 0 = one per CPU, 1 = sequential, N = exactly N")
	crashPoints := fs.Int("crashpoints", 50, "chaos: number of crash points to explore")
	seed := fs.Int64("seed", 1, "campaign seed: workload seed for every experiment, crash-point seed for chaos (same seed = byte-identical report)")
	warehousesList := fs.String("warehouses", "1,2,4,8", "scale: warehouse counts to sweep; chaos: warehouse count (first value)")
	recoveryWorkers := fs.String("recovery-workers", "1", "parallel recovery fan-out: scale sweeps each listed count, other experiments use the largest")
	traceFile := fs.String("trace", "", "write a Chrome trace_event JSON file (virtual timebase) for the campaign's first run; open in chrome://tracing or ui.perfetto.dev")
	timeline := fs.Bool("timeline", false, "print the traced run's recovery-phase timeline after the reports")
	statsFile := fs.String("stats", "", "sample the campaign's first run with the MMON workload repository and export the metric time-series to this file (CSV; .json for JSON); byte-identical across reruns of the same seed")
	awr := fs.Bool("awr", false, "sample the campaign's first run and print an AWR-style first-vs-last snapshot diff report")
	sampleEvery := fs.Duration("sample-interval", time.Second, "MMON sample interval (virtual time) used by -stats/-awr")
	budget := fs.Duration("budget", 30*time.Second, "pareto: recovery-time budget the controller must hold")
	paretoGrid := fs.String("pareto-grid", "", "pareto: comma-separated Table 3 config names to sweep (empty = default six-config grid)")
	standbysList := fs.String("standbys", "1,3", "replica: first-tier stand-by counts to sweep")
	replModes := fs.String("repl-mode", "sync,async", "replica: commit-acknowledgement modes to sweep (sync, async)")
	replLinks := fs.String("repl-link", "lan,wan", "replica: link profiles to sweep (lan, wan)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sc core.Scale
	switch *scaleName {
	case "quick":
		sc = core.QuickScale()
	case "std":
		sc = core.StdScale()
	case "full":
		sc = core.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (got %d)", *parallel)
	}
	sc.Parallel = *parallel
	sc.Seed = *seed

	want, err := parseExperiments(*expList)
	if err != nil {
		return err
	}
	warehouses, err := parseList("warehouses", *warehousesList, "positive integers, e.g. 1,2,4,8", strings.TrimSpace, positiveInt)
	if err != nil {
		return err
	}
	workers, err := parseList("recovery-workers", *recoveryWorkers, "positive integers, e.g. 1,4", strings.TrimSpace, positiveInt)
	if err != nil {
		return err
	}
	sc.RecoveryWorkers = workers
	maxWorkers := 1
	for _, n := range workers {
		if n > maxWorkers {
			maxWorkers = n
		}
	}
	all := want["all"]
	progress := core.Progress(func(line string) {
		fmt.Fprintf(os.Stderr, "%s  %s\n", time.Now().Format("15:04:05"), line)
	})

	// Tracing: the Chrome sink feeds -trace, the timeline sink feeds
	// -timeline; both observe the same event stream. A nil tracer (no
	// flag given) disables every instrumentation point at zero cost.
	var chromeSink *trace.ChromeSink
	var timelineSink *trace.TimelineSink
	var sinks []trace.Sink
	if *traceFile != "" {
		chromeSink = trace.NewChromeSink()
		sinks = append(sinks, chromeSink)
	}
	if *timeline {
		timelineSink = trace.NewTimelineSink()
		sinks = append(sinks, timelineSink)
	}
	var tracer *trace.Tracer
	if sink := trace.MultiSink(sinks...); sink != nil {
		tracer = trace.New(sink)
	}
	sc.Tracer = tracer

	// -stats/-awr: sample the campaign's first run with the MMON
	// repository. The repository pointer lands here when that run
	// completes (the pool joins before we read it).
	var repo *monitor.Repository
	if *statsFile != "" || *awr {
		if *sampleEvery <= 0 {
			return fmt.Errorf("-sample-interval must be positive (got %v)", *sampleEvery)
		}
		sc.SampleInterval = *sampleEvery
		sc.OnRepository = func(r *monitor.Repository) { repo = r }
	}

	// flushTrace writes the collected trace outputs; called once after
	// the campaigns (including before a chaos-violation exit, so the
	// evidence is on disk).
	flushed := false
	flushTrace := func() error {
		if flushed {
			return nil
		}
		flushed = true
		if timelineSink != nil {
			fmt.Println(timelineSink.Render())
		}
		if chromeSink != nil {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			if _, err := chromeSink.WriteTo(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace: %d records written to %s\n", chromeSink.Len(), *traceFile)
		}
		return nil
	}

	// flushStats exports the sampled repository (if a campaign ran one):
	// the -awr diff report to stdout, the -stats time-series to disk.
	flushStats := func() error {
		if repo == nil {
			if *statsFile != "" || *awr {
				fmt.Fprintln(os.Stderr, "stats: no run was sampled (selected experiments ran no campaign)")
			}
			return nil
		}
		if *awr {
			fmt.Print(monitor.FormatAWR(repo))
		}
		if *statsFile != "" {
			f, err := os.Create(*statsFile)
			if err != nil {
				return err
			}
			if strings.HasSuffix(*statsFile, ".json") {
				err = repo.WriteJSON(f)
			} else {
				err = repo.WriteCSV(f)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "stats: %d samples written to %s\n", repo.Len(), *statsFile)
		}
		return nil
	}

	var perf []core.PerfRow
	if all || want["t3"] || want["f4"] {
		rows, err := core.RunTable3(sc, progress)
		if err != nil {
			return err
		}
		perf = rows
		if all || want["t3"] {
			fmt.Println(core.FormatTable3(rows))
		}
	}
	if all || want["f4"] {
		rows, err := core.RunFigure4(sc, perf, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatFigure4(rows))
	}
	if all || want["f5"] {
		rows, err := core.RunFigure5(sc, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatFigure5(rows))
	}
	if all || want["t4"] {
		rows, err := core.RunTable4(sc, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatTable4(rows, sc))
	}
	if all || want["t5"] {
		rows, err := core.RunTable5(sc, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatTable5(rows, sc))
	}
	if all || want["f6"] {
		rows, err := core.RunFigure6(sc, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatFigure6(rows))
	}
	if all || want["f7"] {
		rows, err := core.RunFigure7(sc, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatFigure7(rows))
	}
	if want["scale"] {
		rows, err := core.RunScaling(sc, warehouses, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatScaling(rows))
	}
	if want["logical"] {
		rows, err := core.RunLogicalVsPhysical(sc, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatLogical(rows))
	}
	if want["pareto"] {
		var grid []core.RecoveryConfig // empty = the default grid
		if strings.TrimSpace(*paretoGrid) != "" {
			grid, err = parseList("pareto-grid", *paretoGrid, "Table 3 config names, e.g. F1G3T1,F100G3T10", configName, core.ConfigByName)
			if err != nil {
				return err
			}
		}
		rep, err := core.RunPareto(sc, core.ParetoConfig{Budget: *budget, Grid: grid}, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatPareto(rep))
	}
	if want["replica"] {
		grid := core.DefaultReplicaGrid()
		if grid.Standbys, err = parseList("standbys", *standbysList, "positive integers, e.g. 1,3", strings.TrimSpace, positiveInt); err != nil {
			return err
		}
		if grid.Modes, err = parseList("repl-mode", *replModes, "sync or async", asIs, replMode); err != nil {
			return err
		}
		if grid.Links, err = parseList("repl-link", *replLinks, "lan or wan", asIs, replLink); err != nil {
			return err
		}
		rows, err := core.RunReplica(sc, grid, progress)
		if err != nil {
			return err
		}
		fmt.Println(core.FormatReplica(rows))
	}
	if want["chaos"] {
		cfg := chaos.DefaultConfig()
		cfg.Points = *crashPoints
		cfg.Seed = *seed
		cfg.Parallel = *parallel
		cfg.TPCC.Warehouses = warehouses[0]
		cfg.RecoveryWorkers = maxWorkers
		cfg.Tracer = tracer
		rep, err := chaos.Explore(cfg, progress)
		if err != nil {
			return err
		}
		fmt.Print(chaos.FormatReport(rep))
		if !rep.AllGreen() {
			if err := flushTrace(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			return fmt.Errorf("chaos: %d/%d crash points violated an invariant", rep.Failed(), len(rep.Points))
		}
	}
	if err := flushStats(); err != nil {
		return err
	}
	return flushTrace()
}
