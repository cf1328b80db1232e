//! Watch the attack happen on the wire: a CAN-like broadcast round where
//! an eavesdropping attacker forges the last-transmitting sensor's
//! interval using everything broadcast before her slot.
//!
//! Run with: `cargo run --example bus_attack_demo`

use arsf::bus::Payload;
use arsf::core::transport::run_bus_round;
use arsf::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // True speed 10 mph; correct readings for the LandShark suite.
    let readings = vec![
        Interval::new(9.93, 10.13)?, // encoder-left (compromised!)
        Interval::new(9.88, 10.08)?, // encoder-right
        Interval::new(9.7, 10.7)?,   // gps
        Interval::new(9.1, 11.1)?,   // camera
    ];
    let widths = vec![0.2, 0.2, 1.0, 2.0];

    for (name, order) in [
        (
            "ascending",
            TransmissionOrder::new(vec![0, 1, 2, 3]).unwrap(),
        ),
        (
            "descending",
            TransmissionOrder::new(vec![3, 2, 1, 0]).unwrap(),
        ),
    ] {
        println!("=== {name} schedule: order {order} ===");
        let mut pipeline = FusionPipeline::builder(arsf::sensor::suite::from_widths(&widths))
            .config(PipelineConfig::new(1, SchedulePolicy::Fixed(order.clone())))
            .attacker(AttackerConfig::new([0], 1), Box::new(PhantomOptimal::new()))
            .build();
        let round = run_bus_round(&mut pipeline, &readings, &order);
        for frame in &round.frames {
            match &frame.payload {
                Payload::Measurement { sensor, interval } => {
                    let tag = if *sensor == 0 { " <- forged" } else { "" };
                    println!(
                        "  {} {} sensor {} : {}{}",
                        frame.tick, frame.id, sensor, interval, tag
                    );
                }
                Payload::Fusion { interval } => {
                    println!(
                        "  {} {} controller fusion: {} (width {:.2})",
                        frame.tick,
                        frame.id,
                        interval,
                        interval.width()
                    );
                }
                Payload::Alert { sensor } => {
                    println!("  {} {} ALERT sensor {}", frame.tick, frame.id, sensor);
                }
                _ => {}
            }
        }
        let fused = round.fusion?;
        println!(
            "  -> flagged: {:?}; truth 10.0 inside fusion: {}\n",
            round.flagged,
            fused.contains(10.0)
        );
    }

    println!("Under descending the compromised encoder transmits last and");
    println!("uses every broadcast interval; under ascending it goes first,");
    println!("blind, and is forced to send (almost) the truth.");
    Ok(())
}
