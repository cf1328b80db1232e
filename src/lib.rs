//! # arsf — Attack-Resilient Sensor Fusion
//!
//! A Rust reproduction of Ivanov, Pajic & Lee, **"Attack-Resilient Sensor
//! Fusion"**, DATE 2014 ([DOI 10.7873/DATE.2014.067][doi]): Marzullo
//! interval fusion under adversarial sensors, stealthy attack policies,
//! communication-schedule analysis, and the LandShark autonomous-vehicle
//! case study — behind a **pluggable engine**: any
//! [`Fuser`](fusion::Fuser) and any [`Detector`](detect::Detector) run
//! through one [`FusionPipeline`](core::FusionPipeline), and whole
//! experiments are declarative [`Scenario`](core::Scenario) values
//! executed by a [`ScenarioRunner`](core::ScenarioRunner).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`interval`] | `arsf-interval` | closed intervals, *k*-coverage sweep, ASCII diagrams |
//! | [`sensor`] | `arsf-sensor` | abstract sensors, bounded noise, faults, LandShark suite |
//! | [`fusion`] | `arsf-fusion` | the `Fuser` trait; Marzullo, Brooks–Iyengar, historical, weighted fusers, bounds (Thm 2) |
//! | [`detect`] | `arsf-detect` | the `Detector` trait; off/immediate/windowed detectors |
//! | [`schedule`] | `arsf-schedule` | Ascending/Descending/Random schedules |
//! | [`attack`] | `arsf-attack` | optimal/expectimax/streaming attackers, worst cases (Thms 3–4) |
//! | [`bus`] | `arsf-bus` | CAN-like broadcast bus substrate |
//! | [`core`] | `arsf-core` | the generic fusion engine, scenarios + registry, batch runner, closed-loop vehicle/platoon simulation, metrics, bus transport |
//! | [`analyze`] | `arsf-analyze` | static lints over scenarios, sweep grids and golden baselines |
//!
//! # Quickstart
//!
//! Fuse directly:
//!
//! ```
//! use arsf::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three speedometers; at most one may be faulty or compromised.
//! let readings = [
//!     Interval::new(9.9, 10.1)?,  // encoder
//!     Interval::new(9.6, 10.6)?,  // GPS
//!     Interval::new(9.2, 11.2)?,  // camera
//! ];
//! let fused = arsf::fusion::marzullo::fuse(&readings, 1)?;
//! assert!(fused.contains(10.0));
//! # Ok(())
//! # }
//! ```
//!
//! Or describe a whole experiment declaratively and run it in batch:
//!
//! ```
//! use arsf::prelude::*;
//!
//! let scenario = Scenario::new("quickstart", SuiteSpec::Landshark)
//!     .with_schedule(SchedulePolicy::Descending)
//!     .with_attacker(AttackerSpec::Fixed {
//!         sensors: vec![0],
//!         strategy: StrategySpec::PhantomOptimal,
//!     })
//!     .with_fuser(FuserSpec::BrooksIyengar)
//!     .with_rounds(200);
//! let mut outcomes = Vec::new();
//! let summary = ScenarioRunner::new(&scenario).run_batch(200, &mut outcomes);
//! assert_eq!(summary.truth_lost, 0, "fa <= f keeps the truth");
//! assert!(outcomes.iter().all(|o| o.fusion.is_ok()));
//! ```
//!
//! [doi]: https://doi.org/10.7873/DATE.2014.067

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arsf_analyze as analyze;
pub use arsf_attack as attack;
pub use arsf_bus as bus;
pub use arsf_core as core;
pub use arsf_detect as detect;
pub use arsf_fusion as fusion;
pub use arsf_interval as interval;
pub use arsf_schedule as schedule;
pub use arsf_sensor as sensor;

/// The most commonly used items in one import.
pub mod prelude {
    pub use arsf_attack::strategies::{GreedyExtreme, PhantomOptimal, Side};
    pub use arsf_attack::{AttackMode, AttackStrategy, AttackerConfig, Truthful};
    pub use arsf_core::metrics::SupervisorSummary;
    pub use arsf_core::scenario::{
        AttackerSpec, ClosedLoopSpec, FuserSpec, PlatoonSpec, Scenario, StrategySpec, SuiteSpec,
        TruthSpec,
    };
    pub use arsf_core::{
        BatchSummary, DetectionMode, FusionPipeline, PipelineConfig, RoundOutcome, ScenarioRunner,
    };
    pub use arsf_detect::{
        Detector, ImmediateDetector, NoDetector, RoundAssessment, WindowedDetector,
    };
    pub use arsf_fusion::marzullo::fuse;
    pub use arsf_fusion::{
        BrooksIyengarFuser, Fuser, FusionError, HullFuser, IntersectionFuser, InverseVarianceFuser,
        MarzulloFuser, MidpointMedianFuser,
    };
    pub use arsf_interval::{Interval, IntervalError};
    pub use arsf_schedule::{SchedulePolicy, TransmissionOrder};
    pub use arsf_sensor::{Measurement, NoiseModel, Sensor, SensorSpec, SensorSuite};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        let iv = crate::interval::Interval::new(0.0, 1.0).unwrap();
        assert_eq!(iv.width(), 1.0);
        let suite = crate::sensor::suite::landshark();
        assert_eq!(suite.len(), 4);
    }

    #[test]
    fn prelude_has_the_core_types() {
        use crate::prelude::*;
        let fused = fuse(
            &[
                Interval::new(0.0, 2.0).unwrap(),
                Interval::new(1.0, 3.0).unwrap(),
            ],
            0,
        )
        .unwrap();
        assert_eq!(fused, Interval::new(1.0, 2.0).unwrap());
    }

    #[test]
    fn prelude_exposes_the_scenario_api() {
        use crate::prelude::*;
        let scenario = Scenario::new("facade", SuiteSpec::Landshark).with_rounds(10);
        let summary = ScenarioRunner::new(&scenario).run();
        assert_eq!(summary.rounds, 10);
        assert_eq!(summary.fuser, "marzullo");
    }
}
