//! Quickstart: fuse redundant sensor intervals, watch an attacker stretch
//! the result, and see the detector's limits.
//!
//! Run with: `cargo run --example quickstart`

use arsf::interval::ops::disjoint_indices;
use arsf::interval::render::{Diagram, RowStyle};
use arsf::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A vehicle measures its speed (truly 10 mph) with three sensors of
    // different precision. Each reading becomes an interval wide enough
    // to be guaranteed to contain the true speed.
    let encoder = Interval::new(9.9, 10.1)?; // ±0.1 mph
    let gps = Interval::new(9.6, 10.6)?; // ±0.5 mph
    let camera = Interval::new(9.2, 11.2)?; // ±1.0 mph

    // Marzullo fusion, tolerating at most f = 1 faulty sensor: the fused
    // interval spans every point covered by >= n - f = 2 intervals.
    let honest = fuse(&[encoder, gps, camera], 1)?;
    println!("honest fusion: {honest} (width {:.2})\n", honest.width());

    // An attacker who compromised the GPS and saw the other intervals
    // first (shared bus!) forges the widest stealthy reading.
    let attack =
        arsf::attack::full_knowledge::optimal_attack(&[encoder, camera], &[gps.width()], 1)?;
    let forged = attack.placements[0];
    let attacked = fuse(&[encoder, forged, camera], 1)?;
    println!("forged GPS:    {forged}");
    println!(
        "attacked fusion: {attacked} (width {:.2}, {:.1}x wider)\n",
        attacked.width(),
        attacked.width() / honest.width()
    );

    // The overlap detector cannot flag her: the forged interval touches
    // the fusion interval by construction.
    let flagged = disjoint_indices(&[encoder, forged, camera], &attacked);
    println!("detector flags: {flagged:?} (stealthy attack => nothing to flag)\n");

    // The paper's figures, in ASCII.
    let mut diagram = Diagram::new();
    diagram.row("encoder", encoder, RowStyle::Correct);
    diagram.row("gps (forged)", forged, RowStyle::Attacked);
    diagram.row("camera", camera, RowStyle::Correct);
    diagram.separator();
    diagram.row("fusion", attacked, RowStyle::Fusion);
    diagram.point("truth", 10.0);
    println!("{}", diagram.render(64));

    Ok(())
}
