//! Schedule trade-offs on a custom sensor set: exact expected
//! fusion-interval widths (the paper's Table I methodology) for your own
//! interval lengths.
//!
//! Run with: `cargo run --release --example schedule_tradeoffs [-- width...]`
//! e.g. `cargo run --release --example schedule_tradeoffs -- 5 11 17`

use arsf::schedule::SchedulePolicy;
use arsf_bench::table1::{evaluate_setup, Table1Setup};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<f64> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let widths = if args.is_empty() {
        vec![5.0, 11.0, 17.0]
    } else {
        args
    };
    let fa = 1;
    let step = 1.0;

    let setup = Table1Setup::new(widths, fa);
    println!("{} (f = {}, grid step {step})", setup.label(), setup.f());
    println!("computing exact expectations by grid enumeration ...\n");

    let row = evaluate_setup(&setup, step);
    println!("{:<28} {:>10}", "schedule", "E|S_N,f|");
    println!("{:<28} {:>10.2}", "no attack (honest)", row.honest);
    for (label, adv) in [
        ("ascending (attacked)", row.ascending_adv()),
        ("descending (attacked)", row.descending_adv()),
    ] {
        println!(
            "{label:<28} {:>10.2}   attacker chose sensors {:?}",
            adv.expected_width, adv.set
        );
    }
    println!(
        "\ndescending - ascending gap: {:.2} ({}).",
        row.gap(),
        if row.gap() > 1e-9 {
            "the paper's Table I shape: Ascending protects the system"
        } else {
            "schedules tie on this configuration"
        }
    );

    // The paper's recommendation (Section IV-C): the Ascending schedule,
    // most precise sensor first.
    let mut rng = StdRng::seed_from_u64(0); // Ascending draws nothing from it
    let recommended = SchedulePolicy::Ascending.order(&setup.widths, 0, &mut rng);
    println!("recommended transmission order: {recommended}");
}
