//! Reproduces **Figure 5**: neither schedule is better in all situations.
//!
//! Two concrete measurement realisations, each run under both schedules
//! with the streaming attacker on a real broadcast bus:
//!
//! * (a) the attacker holds the most precise sensor; Descending hands her
//!   full knowledge and she triples the fusion width — **Ascending is
//!   better for the system**,
//! * (b) the attacker holds the second-widest sensor; Descending forces
//!   her to transmit early (passive mode, forgery pinned to `Δ`), while
//!   Ascending lets her transmit after the precise sensors with active
//!   mode unlocked — **Descending is better for the system**.
//!
//! Run with: `cargo run -p arsf-bench --bin repro_fig5`

use arsf_attack::strategies::PhantomOptimal;
use arsf_attack::AttackerConfig;
use arsf_bench::cli::{Args, Cli};
use arsf_core::transport::run_bus_round;
use arsf_core::{FusionPipeline, PipelineConfig};
use arsf_interval::render::{Diagram, RowStyle};
use arsf_interval::Interval;
use arsf_schedule::{SchedulePolicy, TransmissionOrder};

fn iv(lo: f64, hi: f64) -> Interval<f64> {
    Interval::new(lo, hi).expect("static figure coordinates")
}

struct Case {
    title: &'static str,
    readings: Vec<Interval<f64>>,
    widths: Vec<f64>,
    attacked: usize,
    f: usize,
    ascending: TransmissionOrder,
    descending: TransmissionOrder,
}

fn run_case(case: &Case) -> (f64, f64) {
    let mut widths_out = Vec::new();
    for order in [&case.ascending, &case.descending] {
        let schedule = SchedulePolicy::Fixed(order.clone());
        let mut pipeline = FusionPipeline::builder(arsf_sensor::suite::from_widths(&case.widths))
            .config(PipelineConfig::new(case.f, schedule))
            .attacker(
                AttackerConfig::new([case.attacked], case.f),
                Box::new(PhantomOptimal::new()),
            )
            .build();
        let round = run_bus_round(&mut pipeline, &case.readings, order);
        let fused = round.fusion.expect("round fuses");
        assert!(round.flagged.is_empty(), "attacker must stay stealthy");

        let mut d = Diagram::new();
        for (sensor, interval) in &round.transmitted {
            let style = if *sensor == case.attacked {
                RowStyle::Attacked
            } else {
                RowStyle::Correct
            };
            d.row(
                format!("s{sensor} (w={})", case.widths[*sensor]),
                *interval,
                style,
            );
        }
        d.separator();
        d.row("S", fused, RowStyle::Fusion);
        println!(
            "  order {order}: fusion {fused} (width {:.1})",
            fused.width()
        );
        println!("{}", d.render(58));
        widths_out.push(fused.width());
    }
    (widths_out[0], widths_out[1])
}

fn main() {
    Args::from_env(&Cli::new("repro_fig5", &[]), "");
    println!("Figure 5: neither schedule dominates\n");

    // (a) The attacked sensor is the most precise; truth = 0.
    let case_a = Case {
        title: "(a) Ascending is better for the system",
        readings: vec![iv(-2.5, 2.5), iv(-7.0, 4.0), iv(-3.0, 14.0)],
        widths: vec![5.0, 11.0, 17.0],
        attacked: 0,
        f: 1,
        ascending: TransmissionOrder::new(vec![0, 1, 2]).unwrap(),
        descending: TransmissionOrder::new(vec![2, 1, 0]).unwrap(),
    };
    println!("{}", case_a.title);
    let (asc_a, desc_a) = run_case(&case_a);
    assert!(
        desc_a > asc_a,
        "case (a): descending {desc_a} must exceed ascending {asc_a}"
    );
    println!("  => ascending fusion {asc_a:.1} < descending fusion {desc_a:.1}\n");

    // (b) The attacked sensor has the second-largest width: under
    // Descending it transmits second — too early for active mode, so the
    // forgery must contain Δ and is effectively truthful ("little
    // power"). Under Ascending it transmits third, after the two precise
    // sensors, with active mode unlocked ("much information").
    let case_b = Case {
        title: "(b) Descending is better for the system",
        readings: vec![iv(-2.0, 2.0), iv(0.0, 4.0), iv(-1.5, 4.5), iv(-8.0, 8.0)],
        widths: vec![4.0, 4.0, 6.0, 16.0],
        attacked: 2,
        f: 1,
        ascending: TransmissionOrder::new(vec![0, 1, 2, 3]).unwrap(),
        descending: TransmissionOrder::new(vec![3, 2, 0, 1]).unwrap(),
    };
    println!("{}", case_b.title);
    let (asc_b, desc_b) = run_case(&case_b);
    assert!(
        asc_b > desc_b,
        "case (b): ascending {asc_b} must exceed descending {desc_b}"
    );
    println!("  => descending fusion {desc_b:.1} < ascending fusion {asc_b:.1}\n");

    println!("As in the paper: schedule quality depends on the realisation,");
    println!("which is why the paper argues from worst- and average-case");
    println!("analyses (Table I) rather than single examples.");
}
