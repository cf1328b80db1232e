//! Reproduces **Figure 1**: Marzullo's fusion interval for three values
//! of `f` on one five-sensor configuration — the fusion interval grows
//! with the assumed fault count.
//!
//! Run with: `cargo run -p arsf-bench --bin repro_fig1`

use arsf_bench::cli::{Args, Cli};
use arsf_fusion::marzullo::fuse;
use arsf_interval::render::{Diagram, RowStyle};
use arsf_interval::Interval;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    Args::from_env(&Cli::new("repro_fig1", &[]), "");
    // Five abstract sensors; every interval contains the (unknown) truth
    // near 5, mirroring the structure of the paper's illustration.
    let sensors = [
        Interval::new(0.0, 6.0)?,
        Interval::new(1.0, 7.0)?,
        Interval::new(4.0, 8.0)?,
        Interval::new(5.0, 10.0)?,
        Interval::new(3.0, 5.5)?,
    ];

    let mut diagram = Diagram::new();
    for (i, s) in sensors.iter().enumerate() {
        diagram.row(format!("s{}", i + 1), *s, RowStyle::Correct);
    }
    diagram.separator();
    let mut widths = Vec::new();
    for f in [0usize, 1, 2] {
        let fused = fuse(&sensors, f)?;
        widths.push((f, fused.width()));
        diagram.row(format!("S(f={f})"), fused, RowStyle::Fusion);
    }

    println!("Figure 1: Marzullo fusion interval for f = 0, 1, 2 (n = 5)\n");
    println!("{}", diagram.render(64));
    for (f, w) in &widths {
        println!("  |S(f={f})| = {w:.2}");
    }
    assert!(
        widths.windows(2).all(|w| w[0].1 <= w[1].1),
        "the fusion interval must grow with f"
    );
    println!("\nAs in the paper: uncertainty (fusion width) grows with f.");
    Ok(())
}
