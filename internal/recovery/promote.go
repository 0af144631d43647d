// Failover promotion: the streaming standby's activation runs on the
// same apply pass as every other recovery kind — the received but
// unapplied stream tail is rolled forward (on the apply crew when
// RecoveryParallelism > 1, inline otherwise), transactions the stream
// never finished are rolled back in reverse global SCN order, and the
// database opens RESETLOGS as the new primary. The package-level image helpers are exported here so the
// standby's continuous managed recovery applies records with exactly the
// semantics the recovery paths use; any drift between the two would break
// the failover differential (promoted images must be bit-identical to a
// serial recovery of the same redo prefix).
package recovery

import (
	"fmt"
	"sort"
	"strings"

	"dbench/internal/catalog"
	"dbench/internal/engine"
	"dbench/internal/redo"
	"dbench/internal/sim"
	"dbench/internal/storage"
)

// ApplyToImage applies one data-change record to its durable block image,
// honouring the block-SCN idempotence guard. It reports whether the
// record was applied (false: the change was already present).
func ApplyToImage(rec *redo.Record, ref storage.BlockRef) bool {
	img := ref.File.PeekBlock(ref.No)
	if img.SCN >= rec.SCN {
		return false
	}
	switch rec.Op {
	case redo.OpInsert, redo.OpUpdate:
		img.Rows[rec.Key] = append([]byte(nil), rec.After...)
	case redo.OpDelete:
		delete(img.Rows, rec.Key)
	}
	img.SCN = rec.SCN
	return true
}

// UndoToImage applies a record's before-image during a rollback pass,
// stamping the image with the recovery end SCN.
func UndoToImage(rec *redo.Record, ref storage.BlockRef, stamp redo.SCN) {
	img := ref.File.PeekBlock(ref.No)
	switch rec.Op {
	case redo.OpInsert: // undo insert: remove the row
		delete(img.Rows, rec.Key)
	case redo.OpUpdate, redo.OpDelete: // restore the before image
		img.Rows[rec.Key] = append([]byte(nil), rec.Before...)
	}
	if img.SCN < stamp {
		img.SCN = stamp
	}
}

// ReplayDDL re-executes a logged DDL statement against a dictionary and
// physical database during roll-forward. DROP TABLESPACE follows the
// engine's containment rule: only tables fully inside the tablespace go
// down with it.
func ReplayDDL(cat *catalog.Catalog, db *storage.DB, stmt string) {
	switch {
	case strings.HasPrefix(stmt, "DROP TABLE "):
		_ = cat.DropTable(firstWord(strings.TrimPrefix(stmt, "DROP TABLE ")))
	case strings.HasPrefix(stmt, "DROP TABLESPACE "):
		name := firstWord(strings.TrimPrefix(stmt, "DROP TABLESPACE "))
		for _, tbl := range cat.TablesFullyIn(name) {
			_ = cat.DropTable(tbl)
		}
		_ = db.DropTablespace(name)
	case strings.HasPrefix(stmt, "DROP USER "):
		name := firstWord(strings.TrimPrefix(stmt, "DROP USER "))
		_, _ = cat.DropUser(name)
	}
}

// Failover promotes a standby database to primary. The instance must be
// mounted with a physical copy consistent through the standby's continuous
// apply; tail is the received-but-not-yet-applied stream suffix (SCN
// order), pending the data records of transactions the continuous apply
// saw no commit or abort for (arrival order), and scn the standby's
// received watermark — the SCN the new incarnation starts after.
//
// The tail is rolled forward through applyAndUndo, the apply pass crash
// and point-in-time recovery use, so it rides the apply crew exactly when
// they do. Pending records whose transaction commits inside the tail are
// dropped from the undo set; the rest are undone after the tail's own
// losers, which keeps the whole undo pass in reverse global SCN order
// (tail SCNs are all above pending SCNs).
func (m *Manager) Failover(p *sim.Proc, tail, pending []redo.Record, scn redo.SCN) (*Report, error) {
	in := m.in
	if in.State() == engine.StateOpen {
		return nil, fmt.Errorf("recovery: failover target is already open")
	}
	rep := &Report{Kind: KindFailover, Complete: true, Started: p.Now()}
	tl := m.beginTimeline(p, rep)
	tl.phase(p, PhaseRedoReplay)

	finished := redo.FinishedTxns(tail)
	undo := make([]redo.Record, 0, len(pending))
	for _, rec := range pending {
		if !finished[rec.Txn] {
			undo = append(undo, rec)
		}
	}
	sort.SliceStable(undo, func(i, j int) bool { return undo[i].SCN < undo[j].SCN })
	if err := m.applyAndUndo(p, rep, tail, undo, true, scn, tl); err != nil {
		return nil, err
	}
	tl.phase(p, PhaseOpen)
	// Open RESETLOGS: the new incarnation's SCN stream starts past the
	// received watermark; whatever the old primary flushed beyond it is
	// gone (the failover's RPO, measured against the commit ledger).
	if err := in.Log().ResetLogs(scn + 1); err != nil {
		return nil, err
	}
	if err := m.finishRecovery(p, scn, true); err != nil {
		return nil, err
	}
	in.MarkRecovered()
	if err := in.Open(p); err != nil {
		return nil, err
	}
	rep.Finished = p.Now()
	tl.finish(p)
	m.observeRedoReplay(rep)
	return rep, nil
}
