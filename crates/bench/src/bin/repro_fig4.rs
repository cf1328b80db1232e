//! Reproduces **Figure 4**: Theorems 3 and 4 — attacking the biggest
//! intervals does not change the worst case in the system, while
//! attacking the smallest achieves the absolute worst case.
//!
//! The experiment searches all configurations (correct intervals placed
//! adversarially on a grid, attacked intervals forged optimally) and
//! reports the worst-case fusion width per choice of attacked sensors.
//!
//! Run with: `cargo run --release -p arsf-bench --bin repro_fig4`
//! (`--step <s>` to change the placement grid, default 1.0)

use arsf_attack::worst_case::{attacked_worst_case, no_attack_worst_case, subsets};
use arsf_bench::cli::{Args, Cli, Flag};
use arsf_bench::TextTable;
use arsf_interval::render::{Diagram, RowStyle};

#[rustfmt::skip]
const REPRO_FIG4: Cli = Cli::new("repro_fig4", &[&[
    Flag::value("--step", "s", "the placement grid step (default 1.0)"),
]]);

fn main() {
    let args = Args::from_env(&REPRO_FIG4, "");
    let step = args.ok(args.get::<f64>("--step")).unwrap_or(1.0);
    // A five-sensor system with two clearly-smallest and two
    // clearly-largest intervals; f = 2 tolerates fa = 2.
    let widths = [2.0, 3.0, 4.0, 6.0, 8.0];
    let f = 2;
    let fa = 2;

    println!("Figure 4 / Theorems 3 & 4: worst-case fusion width by attacked set");
    println!("widths L = {widths:?}, f = {f}, fa = {fa}, grid step {step}\n");

    let na = no_attack_worst_case(&widths, f, step).expect("valid configuration");
    println!("no attack:            |S_na|    = {:.2}", na.width);

    let mut table = TextTable::new(vec![
        "attacked sensors".into(),
        "widths".into(),
        "|S_F|".into(),
        "note".into(),
    ]);
    let mut global_best = f64::NEG_INFINITY;
    let mut global_set = Vec::new();
    let mut results = Vec::new();
    for subset in subsets(widths.len(), fa) {
        let wc = attacked_worst_case(&widths, &subset, f, step).expect("bounded attack");
        if wc.width > global_best {
            global_best = wc.width;
            global_set = subset.clone();
        }
        results.push((subset, wc));
    }
    let smallest_set = vec![0usize, 1];
    let largest_set = vec![3usize, 4];
    for (subset, wc) in &results {
        let note = if *subset == smallest_set {
            "the two smallest (Theorem 4: achieves the global worst case)"
        } else if *subset == largest_set {
            "the two largest (Theorem 3: no worse than no attack)"
        } else {
            ""
        };
        let ws: Vec<String> = subset.iter().map(|&i| format!("{}", widths[i])).collect();
        table.row(vec![
            format!("{subset:?}"),
            format!("{{{}}}", ws.join(", ")),
            format!("{:.2}", wc.width),
            note.into(),
        ]);
    }
    println!("\n{}", table.render());

    // Theorem 3: attacking the largest intervals leaves the worst case
    // unchanged.
    let largest = results
        .iter()
        .find(|(s, _)| *s == largest_set)
        .expect("subset enumerated");
    assert!(
        (largest.1.width - na.width).abs() < 1e-9,
        "Theorem 3 violated: {} vs {}",
        largest.1.width,
        na.width
    );

    // Theorem 4: attacking the smallest achieves the global worst case.
    let smallest = results
        .iter()
        .find(|(s, _)| *s == smallest_set)
        .expect("subset enumerated");
    assert!(
        (smallest.1.width - global_best).abs() < 1e-9,
        "Theorem 4 violated: {} vs global {}",
        smallest.1.width,
        global_best
    );

    println!("global worst case {global_best:.2} achieved by {global_set:?};");
    println!(
        "Theorem 3 check: attacking {{6, 8}} gives exactly |S_na| = {:.2} ✓",
        na.width
    );
    println!("Theorem 4 check: attacking {{2, 3}} achieves the global worst case ✓\n");

    // Render the worst configuration for the smallest-attacked case,
    // mirroring Fig. 4(b).
    let mut d = Diagram::new();
    for (i, c) in smallest.1.correct.iter().enumerate() {
        d.row(format!("c{}", i + 1), *c, RowStyle::Correct);
    }
    for (i, a) in smallest.1.attacked.iter().enumerate() {
        d.row(format!("a{}", i + 1), *a, RowStyle::Attacked);
    }
    d.separator();
    let all: Vec<_> = smallest
        .1
        .correct
        .iter()
        .chain(smallest.1.attacked.iter())
        .copied()
        .collect();
    let fused = arsf_fusion::marzullo::fuse(&all, f).expect("worst case fuses");
    d.row("S", fused, RowStyle::Fusion);
    d.point("truth", 0.0);
    println!("worst configuration when the two smallest are attacked:");
    println!("{}", d.render(60));
}
