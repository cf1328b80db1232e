//! Acceptance test for the regression-baseline harness: the two
//! committed golden baselines under `baselines/` must match a fresh run
//! of their grids cell for cell (so `sweep_diff check` passes locally
//! and in CI), and a deliberately perturbed report must fail with a
//! message naming the cell's grid index, column, baseline value and new
//! value.
//!
//! If an *intentional* fusion-algorithm change lands, re-record with
//! `cargo run --release -p arsf-bench --bin sweep_diff -- record
//! --allow detect-vacuous` (the Table II grid's detection columns are
//! provably vacuous, which the recording veto refuses by default).

use std::path::PathBuf;

use arsf_bench::golden;
use arsf_core::sweep::diff::{diff, DiffConfig, Drift, Tolerance};
use arsf_core::sweep::store::{grid_address, Baseline};
use arsf_core::sweep::StreamingSweeper;

fn baselines_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines")
}

#[test]
fn committed_baselines_match_a_fresh_run_of_every_golden_grid() {
    let sweeper = StreamingSweeper::new(2);
    for (name, grid) in golden::all() {
        let stored = Baseline::load_for_grid(baselines_dir(), &grid).unwrap_or_else(|e| {
            panic!(
                "no committed baseline for {name} (address {}): {e}; \
                 run `sweep_diff record` and commit the file",
                grid_address(&grid)
            )
        });
        let current = Baseline::from_report(&grid, &sweeper.run(&grid));
        // The check harness's configuration: near-exact, so the gate
        // holds across platforms whose libm differs in the last ulp.
        let result = diff(&stored, &current, &DiffConfig::near_exact());
        assert!(
            result.is_empty(),
            "golden grid {name} drifted from its committed baseline:\n{}",
            result.render()
        );
        assert_eq!(result.cells_compared(), grid.len());
    }
}

#[test]
fn a_perturbed_cell_fails_the_check_naming_cell_column_and_values() {
    let grid = golden::table2_closed_loop();
    let stored =
        Baseline::load_for_grid(baselines_dir(), &grid).expect("committed table2 baseline");
    let mut perturbed = stored.clone();
    // Nudge one cell's mean width beyond any sane tolerance.
    let victim = 3;
    let slot = perturbed.rows[victim]
        .metrics
        .iter_mut()
        .find(|(name, _)| name == "mean_width")
        .expect("mean_width column");
    let old = slot.1.expect("closed-loop cells fuse every round");
    let new = old + 0.25;
    slot.1 = Some(new);

    let result = diff(&stored, &perturbed, &DiffConfig::near_exact());
    assert_eq!(result.len(), 1, "{}", result.render());
    let cell = stored.rows[victim].cell;
    match &result.drifts()[0] {
        Drift::Value {
            cell: c,
            column,
            baseline,
            current,
        } => {
            assert_eq!(*c, cell);
            assert_eq!(column, "mean_width");
            assert_eq!(*baseline, Some(old));
            assert_eq!(*current, Some(new));
        }
        other => panic!("expected a value drift, got {other:?}"),
    }
    // The rendered failure names the grid index, column and both values.
    let rendered = result.render();
    for needle in [
        format!("cell {cell} `mean_width`"),
        format!("baseline {old}"),
        format!("current {new}"),
    ] {
        assert!(
            rendered.contains(&needle),
            "missing `{needle}` in:\n{rendered}"
        );
    }
    // And a tolerance wide enough to cover the nudge silences the drift.
    let lax = DiffConfig::default().with_column("mean_width", Tolerance::new(0.5, 0.0));
    assert!(diff(&stored, &perturbed, &lax).is_empty());
}

#[test]
fn committed_baseline_files_are_content_addressed_and_self_describing() {
    for (name, grid) in golden::all() {
        let address = grid_address(&grid);
        let path = baselines_dir().join(format!("{address}.json"));
        let stored = Baseline::load(&path)
            .unwrap_or_else(|e| panic!("{name}: cannot load {}: {e}", path.display()));
        assert_eq!(stored.address, address, "{name}: file stem matches address");
        assert_eq!(
            stored.rows.len(),
            grid.len(),
            "{name}: one record per grid cell"
        );
        // The stored definition is the grid's own canonical form, so the
        // baseline file re-derives its address.
        assert_eq!(
            arsf_core::sweep::store::content_address(&stored.definition),
            address,
            "{name}: definition and address agree"
        );
    }
}
