package main

import (
	"context"
	"fmt"

	"github.com/bullfrogdb/bullfrog"
	"github.com/bullfrogdb/bullfrog/internal/tpcc"
)

// probeSnapshotFault runs n probe operations for a migration workload, one
// per client round. Each probe is the same input-independent repro of the
// snapshot fault in Txn.ExecContext: on a small database whose migration
// has no background drain, a db.Begin transaction reads by key one row that
// nothing has migrated yet. Interception migrates the row in a migration
// transaction that commits after the client snapshot was taken, so the read
// finds nothing — every time, while the fault stands. A probe that finds
// the row completes; one that does not fails with cause row_missing.
func probeSnapshotFault(ctx context.Context, wl workload, n int) (failed map[string]int64, err error) {
	failed = map[string]int64{}
	if n == 0 {
		return failed, nil
	}
	db := bullfrog.Open(bullfrog.Options{})
	defer db.Close()
	sc := tpcc.Scale{Warehouses: 1, DistrictsPerW: 1, CustomersPerDist: n, Items: n, InitialOrdersPerD: 1, MaxLinesPerOrder: 5}
	if _, err := db.Exec(tpcc.SchemaDDL); err != nil {
		return nil, fmt.Errorf("probe schema: %w", err)
	}
	if err := tpcc.Load(db.Engine(), sc, 1); err != nil {
		return nil, fmt.Errorf("probe load: %w", err)
	}
	if _, err := db.MigrateContext(ctx, wl.migration(), bullfrog.MigrateOptions{BackgroundDelay: -1}); err != nil {
		return nil, fmt.Errorf("probe migrate: %w", err)
	}
	for i := 1; i <= n; i++ {
		q := fmt.Sprintf("SELECT c_balance FROM customer_private WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = %d", i)
		if wl.target == schemaJoin {
			q = fmt.Sprintf("SELECT s_quantity FROM orderline_stock WHERE ol_supply_w_id = 1 AND ol_i_id = %d", i)
		}
		tx := db.Begin()
		res, err := tx.ExecContext(ctx, q)
		_ = tx.Abort() // read-only
		switch {
		case err != nil:
			failed[causeError]++
		case len(res.Rows) == 0:
			failed[causeRowMissing]++
		}
	}
	return failed, nil
}
