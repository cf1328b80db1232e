//! The sweep subsystem in one example: a scenario grid — four fusion
//! algorithms × three detectors × two schedules, every combination a
//! lazily-materialised `Scenario` — sharded across scoped worker
//! threads, with the parallel report byte-identical to the serial run;
//! then the same machinery driving Table II's **closed-loop** cells (a
//! LandShark inside its control loop, any sensor attackable).
//!
//! Run with: `cargo run --release --example scenario_sweep`

use arsf::core::scenario::{
    AttackerSpec, ClosedLoopSpec, FuserSpec, Scenario, StrategySpec, SuiteSpec,
};
use arsf::core::sweep::{StreamingSweeper, SweepGrid};
use arsf::core::DetectionMode;
use arsf::schedule::SchedulePolicy;

fn main() {
    let base = Scenario::new("sweep", SuiteSpec::Landshark)
        .with_attacker(AttackerSpec::Fixed {
            sensors: vec![0],
            strategy: StrategySpec::PhantomOptimal,
        })
        .with_rounds(2000);
    let grid = SweepGrid::new(base)
        .fusers([
            FuserSpec::Marzullo,
            FuserSpec::BrooksIyengar,
            FuserSpec::Historical {
                max_rate: 3.5,
                dt: 0.1,
            },
            FuserSpec::InverseVariance,
        ])
        .detectors([
            DetectionMode::Off,
            DetectionMode::Immediate,
            DetectionMode::Windowed {
                window: 20,
                tolerance: 6,
            },
        ])
        .schedules([SchedulePolicy::Ascending, SchedulePolicy::Descending]);

    let sweeper = StreamingSweeper::auto();
    println!(
        "Grid sweep: {} cells (4 fusers x 3 detectors x 2 schedules),",
        grid.len()
    );
    println!("LandShark @ 10 mph, encoder 0 compromised (phantom-optimal),");
    println!(
        "2000 rounds per cell, {} worker thread(s)\n",
        sweeper.threads()
    );

    let report = sweeper.run(&grid);

    println!(
        "{:<5} {:<16} {:<11} {:<11} {:>11} {:>11} {:>12} {:>12}",
        "cell",
        "fuser",
        "detector",
        "schedule",
        "mean width",
        "truth lost",
        "flag rounds",
        "condemned"
    );
    for row in report.rows() {
        let s = &row.summary;
        println!(
            "{:<5} {:<16} {:<11} {:<11} {:>11.3} {:>11} {:>12} {:>12}",
            row.cell,
            s.fuser,
            s.detector,
            row.schedule,
            s.widths.mean(),
            s.truth_lost,
            s.flagged_rounds,
            format!("{:?}", s.condemned),
        );
    }

    // Determinism is part of the contract: the parallel report carries
    // exactly the bytes a serial sweep would produce.
    let serial = grid.run_serial();
    assert_eq!(report, serial);
    assert_eq!(report.to_csv(), serial.to_csv());

    println!("\nReading the table: the interval fusers (Marzullo, Brooks-");
    println!("Iyengar) never lose the truth with fa <= f; history tightens");
    println!("the attacked fusion; the probabilistic baseline loses the");
    println!("truth in a large share of rounds - the paper's core contrast.");
    println!("(Parallel report verified byte-identical to the serial run.)");

    // Closed-loop cells through the same grid: Table II's three
    // schedules, one uniformly-random compromised sensor per round, the
    // vehicle's supervisor preempting on envelope escapes.
    let closed = SweepGrid::new(
        Scenario::new("table2", SuiteSpec::Landshark)
            .with_attacker(AttackerSpec::RandomEachRound)
            .with_rounds(2000)
            .with_closed_loop(ClosedLoopSpec::new(10.0)),
    )
    .schedules([
        SchedulePolicy::Ascending,
        SchedulePolicy::Descending,
        SchedulePolicy::Random,
    ]);
    println!("\nClosed-loop sweep (Table II): LandShark @ 10 mph, envelope");
    println!("[9.5, 10.5] mph, one random compromised sensor per round\n");
    println!(
        "{:<5} {:<11} {:>9} {:>9} {:>10}",
        "cell", "schedule", "above", "below", "preempts"
    );
    for row in sweeper.run(&closed).rows() {
        let sup = row.summary.supervisor.as_ref().expect("closed-loop row");
        println!(
            "{:<5} {:<11} {:>8.2}% {:>8.2}% {:>10}",
            row.cell,
            row.schedule,
            sup.above_rate * 100.0,
            sup.below_rate * 100.0,
            sup.preemptions
        );
    }
    println!("\nAscending stays violation-free; Descending is worst; Random");
    println!("sits between - Table II's ordering, now one grid away.");
}
