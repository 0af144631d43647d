package recovery

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbench/internal/backup"
	"dbench/internal/engine"
	"dbench/internal/sim"
	"dbench/internal/simdisk"
	"dbench/internal/storage"
	"dbench/internal/tpcc"
)

// Differential serial-vs-parallel harness: every recovery kind, run over
// the same crashed TPC-C database (fresh same-seed simulation per run,
// so the pre-fault history is bit-identical), must produce the same
// recovered state for every worker count — byte-identical datafile
// images, identical lost/undone transaction counts, identical report
// totals. Only recovery *time* may differ.

var updateSerialPhases = flag.Bool("update-serial-phases", false,
	"rewrite testdata/serial-phases-*.golden from the observed workers=1 phase timelines")

// repCounts is the worker-count-invariant slice of a Report: everything
// except the virtual-time fields.
type repCounts struct {
	Kind              Kind
	Complete          bool
	RecordsApplied    int
	BytesApplied      int64
	RecordsScanned    int
	ArchivesProcessed int
	LosersRolledBack  int
	LostCommits       int
	// Offered/Served are the driver's terminal-side counts: identical
	// pre-fault histories must have offered and served identically at
	// every worker count, and online recovery must never retroactively
	// turn served traffic into refused traffic.
	Offered int
	Served  int
}

func countsOf(rep *Report) repCounts {
	return repCounts{
		Kind:              rep.Kind,
		Complete:          rep.Complete,
		RecordsApplied:    rep.RecordsApplied,
		BytesApplied:      rep.BytesApplied,
		RecordsScanned:    rep.RecordsScanned,
		ArchivesProcessed: rep.ArchivesProcessed,
		LosersRolledBack:  rep.LosersRolledBack,
		LostCommits:       rep.LostCommits,
	}
}

// snapshotAllImages deep-copies every datafile's durable block images,
// keyed by file name: the bit-for-bit recovered state.
func snapshotAllImages(db *storage.DB) map[string][]*storage.Block {
	images := make(map[string][]*storage.Block)
	for _, ts := range db.Tablespaces() {
		for _, f := range ts.Files {
			images[f.Name] = f.SnapshotImages()
		}
	}
	return images
}

// diffImages returns "" when the two image sets are identical, else a
// description of the first difference.
func diffImages(base, got map[string][]*storage.Block) string {
	if len(base) != len(got) {
		return fmt.Sprintf("file count %d vs %d", len(base), len(got))
	}
	for name, bb := range base {
		gb, ok := got[name]
		if !ok {
			return fmt.Sprintf("file %s missing", name)
		}
		if len(bb) != len(gb) {
			return fmt.Sprintf("file %s: %d vs %d blocks", name, len(bb), len(gb))
		}
		for i := range bb {
			if !reflect.DeepEqual(bb[i], gb[i]) {
				return fmt.Sprintf("file %s block %d: SCN %d/%d rows %d/%d",
					name, i, bb[i].SCN, gb[i].SCN, len(bb[i].Rows), len(gb[i].Rows))
			}
		}
	}
	return ""
}

// runDifferential builds a fresh simulation (fixed kernel seed, so the
// entire pre-fault history is identical across calls), loads a TPC-C
// database at the given warehouse count, runs the workload, injects the
// fault for `kind`, recovers with the given worker count, and returns the
// recovered state snapshotted at the virtual instant recovery returned.
func runDifferential(t *testing.T, kind string, warehouses, workers int) (repCounts, map[string][]*storage.Block, *Report) {
	t.Helper()
	k := sim.NewKernel(1234)
	fs := simdisk.NewFS(
		simdisk.DefaultSpec(engine.DiskData1),
		simdisk.DefaultSpec(engine.DiskData2),
		simdisk.DefaultSpec(engine.DiskRedo),
		simdisk.DefaultSpec(engine.DiskArch),
	)
	ecfg := engine.DefaultConfig()
	ecfg.Redo.GroupSizeBytes = 1 << 20
	ecfg.Redo.Groups = 3
	ecfg.Redo.ArchiveMode = true
	ecfg.CacheBlocks = 256
	ecfg.CheckpointTimeout = 60 * time.Second
	ecfg.CPUs = 4
	ecfg.RecoveryParallelism = workers
	in, err := engine.New(k, fs, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := tpcc.DefaultConfig()
	tcfg.Warehouses = warehouses
	tcfg.CustomersPerDistrict = 30
	tcfg.Items = 300
	tcfg.TerminalsPerWarehouse = 4
	app := tpcc.NewApp(in, tcfg)
	drv := tpcc.NewDriver(app, tpcc.DefaultDriverConfig())
	bk := backup.NewManager(k, fs, engine.DiskArch)
	rm := NewManager(in, bk)

	var rep *Report
	var images map[string][]*storage.Block
	var runErr error
	k.Go("diff", func(p *sim.Proc) {
		runErr = func() error {
			if err := in.Open(p); err != nil {
				return err
			}
			if err := app.CreateSchema(p, []string{engine.DiskData1, engine.DiskData2}); err != nil {
				return err
			}
			if err := app.Load(p, rand.New(rand.NewSource(99))); err != nil {
				return err
			}
			if err := in.Checkpoint(p); err != nil {
				return err
			}
			if _, err := bk.TakeFull(p, in.DB(), in.Catalog(), in.DB().Control.CheckpointSCN); err != nil {
				return err
			}
			if err := in.ForceLogSwitch(p); err != nil {
				return err
			}
			drv.Start()
			p.Sleep(30 * time.Second)
			drv.Quiesce(p)

			// commitRow commits one synthetic history row (history keys
			// are a global sequence; huge keys cannot collide with it).
			commitRow := func(key int64) error {
				tx, err := in.Begin()
				if err != nil {
					return err
				}
				if err := in.Insert(p, tx, tpcc.TableHistory, key, []byte("diff")); err != nil {
					return err
				}
				return in.Commit(p, tx)
			}

			switch kind {
			case "instance":
				// Leave an in-flight transaction, then a commit so group
				// commit flushes its records: recovery must undo it.
				tx, err := in.Begin()
				if err != nil {
					return err
				}
				if err := in.Insert(p, tx, tpcc.TableHistory, 1<<60, []byte("inflight")); err != nil {
					return err
				}
				if err := commitRow(1<<60 + 1); err != nil {
					return err
				}
				in.Crash()
				rep, err = rm.InstanceRecovery(p)
				if err != nil {
					return err
				}
			case "media":
				// Operator fault: delete a datafile, restore from backup
				// and roll it forward.
				victim := "TPCC_01.dbf"
				if err := fs.Delete(victim); err != nil {
					return err
				}
				rep, err = rm.RestoreAndRecoverDatafile(p, victim)
				if err != nil {
					return err
				}
			case "pit":
				// Commits beyond the target: incomplete recovery must
				// discard exactly these, at every worker count.
				target := in.Log().NextSCN() - 1
				for i := int64(0); i < 5; i++ {
					if err := commitRow(1<<60 + i); err != nil {
						return err
					}
				}
				rep, err = rm.PointInTime(p, target)
				if err != nil {
					return err
				}
			case "tablespace":
				// Online tablespace recovery: delete one warehouse's
				// datafile, offline just its tablespace, restore and roll
				// it forward with the instance open throughout.
				victim, tsName := "TPCC_01.dbf", "TPCC"
				if warehouses > 1 {
					victim, tsName = "TPCC_W01_01.dbf", "TPCC_W01"
				}
				if err := fs.Delete(victim); err != nil {
					return err
				}
				if err := in.OfflineTablespaceForRecovery(p, tsName); err != nil {
					return err
				}
				rep, err = rm.OnlineTablespaceRecovery(p, tsName)
				if err != nil {
					return err
				}
				// Served-traffic invariant: online recovery repairs
				// storage under a live instance, so no commit the driver
				// acknowledged may be refused retroactively.
				lost, err := drv.VerifyDurability(p)
				if err != nil {
					return err
				}
				if len(lost) > 0 {
					return fmt.Errorf("online tablespace recovery lost %d acked commits", len(lost))
				}
			default:
				return fmt.Errorf("unknown differential kind %q", kind)
			}
			// Snapshot at the instant recovery returned, before any other
			// process can run: this is the state recovery produced.
			images = snapshotAllImages(in.DB())
			return nil
		}()
	})
	k.Run(sim.Time(100 * time.Hour))
	if runErr != nil {
		t.Fatalf("%s/W%d/workers=%d: %v", kind, warehouses, workers, runErr)
	}
	counts := countsOf(rep)
	g := drv.Availability(0, sim.Time(100*time.Hour)).Global()
	counts.Offered, counts.Served = g.Offered, g.Served
	return counts, images, rep
}

// TestDifferentialSerialVsParallel is the headline differential: for each
// recovery kind and warehouse count, the parallel pipeline at 2 and 4
// workers must recover the database to exactly the serial result.
func TestDifferentialSerialVsParallel(t *testing.T) {
	for _, kind := range []string{"instance", "media", "pit", "tablespace"} {
		for _, w := range []int{1, 4} {
			kind, w := kind, w
			t.Run(fmt.Sprintf("%s/W%d", kind, w), func(t *testing.T) {
				base, baseImages, baseRep := runDifferential(t, kind, w, 1)
				checkPhases(t, baseRep)
				checkSerialPhasesGolden(t, fmt.Sprintf("%s-W%d", kind, w), baseRep)
				// The scenario must be non-trivial, or the differential
				// proves nothing.
				if base.RecordsApplied == 0 {
					t.Fatalf("serial baseline applied no records: %+v", base)
				}
				switch kind {
				case "instance":
					if base.LosersRolledBack == 0 {
						t.Fatalf("instance baseline rolled back no losers: %+v", base)
					}
				case "pit":
					if base.LostCommits != 5 {
						t.Fatalf("pit baseline lost %d commits, want 5", base.LostCommits)
					}
					if base.ArchivesProcessed == 0 {
						t.Fatalf("pit baseline read no archives: %+v", base)
					}
				}
				for _, workers := range []int{2, 4} {
					counts, images, rep := runDifferential(t, kind, w, workers)
					checkPhases(t, rep)
					if counts != base {
						t.Errorf("workers=%d: counts diverge from serial:\n  serial:   %+v\n  parallel: %+v",
							workers, base, counts)
					}
					if d := diffImages(baseImages, images); d != "" {
						t.Errorf("workers=%d: datafile images diverge from serial: %s", workers, d)
					}
					// The replay phase must record the fan-out it ran at.
					fanout := 0
					for _, ph := range rep.Phases {
						if ph.Name == PhaseRedoReplay && ph.Workers > fanout {
							fanout = ph.Workers
						}
					}
					if fanout != workers {
						t.Errorf("workers=%d: redo replay phase reports fan-out %d", workers, fanout)
					}
				}
			})
		}
	}
}

// checkSerialPhasesGolden pins the workers=1 phase timeline — every
// phase's name, virtual start/end, scanned/applied/bytes counters and
// fan-out — against testdata/serial-phases-<name>.golden, so the serial
// virtual timing of every recovery kind cannot drift unnoticed.
func checkSerialPhasesGolden(t *testing.T, name string, rep *Report) {
	t.Helper()
	var b strings.Builder
	for _, ph := range rep.Phases {
		fmt.Fprintf(&b, "%-14s start=%d end=%d scanned=%d records=%d bytes=%d workers=%d\n",
			ph.Name, int64(ph.Start), int64(ph.End), ph.Scanned, ph.Records, ph.Bytes, ph.Workers)
	}
	got := b.String()
	path := filepath.Join("testdata", "serial-phases-"+name+".golden")
	if *updateSerialPhases {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-serial-phases): %v", err)
	}
	if got != string(want) {
		t.Errorf("workers=1 phase timeline drifted from %s (regenerate with -update-serial-phases if deliberate):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
