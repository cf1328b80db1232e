//! Reproduces **Figure 2**: if the attacker has not seen all correct
//! intervals, no forgery is optimal for every continuation — each
//! committed placement is punished by some placement of the unseen
//! interval.
//!
//! Run with: `cargo run -p arsf-bench --bin repro_fig2`

use arsf_attack::regret::{evaluate_commitment, fig2_demo};
use arsf_bench::cli::{Args, Cli};
use arsf_interval::render::{Diagram, RowStyle};

fn main() {
    Args::from_env(&Cli::new("repro_fig2", &[]), "");
    let demo = fig2_demo();
    println!("Figure 2: no optimal attack policy under partial information\n");
    println!(
        "the attacker saw only s1 = {} and must commit a width-{} forgery (n = 3, f = 1)\n",
        demo.s1, demo.width
    );

    let (a_one, case_one) = (demo.one_sided.0, demo.one_sided.1);
    let (a_two, case_two) = (demo.two_sided.0, demo.two_sided.1);

    println!("policy a1(1) = {a_one} (one-sided):");
    println!(
        "  if s2 = {} appears: fusion width {:.1}, hindsight optimum {:.1}, regret {:.1}",
        case_one.s2,
        case_one.achieved,
        case_one.hindsight,
        case_one.regret()
    );
    let mut d1 = Diagram::new();
    d1.row("s1", demo.s1, RowStyle::Correct);
    d1.row("s2", case_one.s2, RowStyle::Correct);
    d1.row("a1(1)", a_one, RowStyle::Attacked);
    println!("{}", d1.render(56));

    println!("policy a1(2) = {a_two} (two-sided):");
    println!(
        "  if s2 = {} appears: fusion width {:.1}, hindsight optimum {:.1}, regret {:.1}",
        case_two.s2,
        case_two.achieved,
        case_two.hindsight,
        case_two.regret()
    );
    let mut d2 = Diagram::new();
    d2.row("s1", demo.s1, RowStyle::Correct);
    d2.row("s2", case_two.s2, RowStyle::Correct);
    d2.row("a1(2)", a_two, RowStyle::Attacked);
    println!("{}", d2.render(56));

    // Cross-evaluation: each policy beats the other on its opponent's
    // punishing realisation, so no total order exists.
    let two_on_left = evaluate_commitment(demo.s1, a_two, case_one.s2, 1).expect("fuses");
    let one_on_right = evaluate_commitment(demo.s1, a_one, case_two.s2, 1).expect("fuses");
    println!("cross-check:");
    println!(
        "  on s2 = {}: one-sided {:.1} < two-sided {:.1}",
        case_one.s2, case_one.achieved, two_on_left.achieved
    );
    println!(
        "  on s2 = {}: two-sided {:.1} < one-sided {:.1}",
        case_two.s2, case_two.achieved, one_on_right.achieved
    );
    assert!(case_one.regret() > 0.0 && case_two.regret() > 0.0);
    assert!(two_on_left.achieved > case_one.achieved);
    assert!(one_on_right.achieved > case_two.achieved);
    println!("\nAs in the paper: whatever the attacker commits, some");
    println!("continuation makes a different forgery strictly better.");
}
