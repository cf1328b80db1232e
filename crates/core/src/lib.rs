//! The attack-resilient sensor-fusion engine.
//!
//! This crate assembles the substrates ([`arsf_sensor`], [`arsf_schedule`],
//! [`arsf_attack`], [`arsf_fusion`], [`arsf_detect`], [`arsf_bus`]) into
//! the system the [DATE 2014 paper][paper] describes: `n` sensors measure
//! one physical variable, broadcast abstract intervals over a shared bus
//! in a scheduled order, an attacker forges the intervals of the sensors
//! she controls using everything already on the wire, and the controller
//! fuses and runs attack detection.
//!
//! The engine is **pluggable** along its two algorithmic axes:
//!
//! * [`FusionPipeline`] — the round engine (sample → schedule → (attack)
//!   → fuse → detect), generic over any [`Fuser`](arsf_fusion::Fuser)
//!   (Marzullo, Brooks–Iyengar, historical, weighted, …) and driving any
//!   [`Detector`](arsf_detect::Detector) (off, immediate, windowed, …),
//! * [`PipelineConfig`]/[`DetectionMode`] — validated configuration;
//!   the detection mode is the declarative name of the default detector,
//! * [`RoundOutcome`] — everything observable about one round, designed
//!   as a reusable buffer ([`FusionPipeline::run_round_into`]),
//! * [`scenario`] — declarative [`Scenario`] descriptions (suite, faults,
//!   attacker, schedule, fuser, detector, truth, rounds, seed) and a
//!   registry of named presets,
//! * [`ScenarioRunner`] — batch execution of scenarios into preallocated
//!   outcome buffers, with [`BatchSummary`] aggregation,
//! * [`sweep`] — cartesian scenario grids ([`SweepGrid`]) executed
//!   serially or across scoped worker threads (one engine,
//!   [`sweep::StreamingSweeper`]) into
//!   deterministic, grid-ordered [`SweepReport`]s with CSV/JSON emission;
//!   [`sweep::store`] persists reports content-addressed by their grid
//!   definition and [`sweep::diff`] compares two stored reports cell by
//!   cell under per-column tolerances (the regression-baseline harness),
//! * [`metrics`] — violation counters and width statistics used by the
//!   experiment harnesses,
//! * [`transport`] — a [`FusionPipeline`] round executed over the
//!   `arsf-bus` broadcast substrate: sensor, attacker and controller
//!   *nodes* run the pipeline's own slot step, fuser and detector, with
//!   the attacker's view built from the frames on the wire (used to show
//!   transport equivalence and in the bus demos).
//!
//! # Example
//!
//! ```
//! use arsf_attack::{strategies::PhantomOptimal, AttackerConfig};
//! use arsf_core::{FusionPipeline, PipelineConfig};
//! use arsf_schedule::SchedulePolicy;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // LandShark suite under Ascending schedule, encoder 0 compromised.
//! let mut pipeline = FusionPipeline::builder(arsf_sensor::suite::landshark())
//!     .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
//!     .attacker(AttackerConfig::new([0], 1), Box::new(PhantomOptimal::new()))
//!     .build();
//! let mut rng = StdRng::seed_from_u64(42);
//! let outcome = pipeline.run_round(10.0, &mut rng);
//! let fused = outcome.fusion.expect("sensors agree");
//! assert!(fused.contains(10.0), "fa <= f keeps the truth inside");
//! assert!(outcome.flagged.is_empty(), "the attacker stays stealthy");
//! ```
//!
//! Swapping the fusion algorithm (or the detector) is one builder call —
//! every algorithm runs through the same engine:
//!
//! ```
//! use arsf_core::{FusionPipeline, PipelineConfig};
//! use arsf_fusion::BrooksIyengarFuser;
//! use arsf_schedule::SchedulePolicy;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut pipeline = FusionPipeline::builder(arsf_sensor::suite::landshark())
//!     .config(PipelineConfig::new(1, SchedulePolicy::Ascending))
//!     .fuser(BrooksIyengarFuser::new(1))
//!     .build();
//! let mut rng = StdRng::seed_from_u64(42);
//! assert!(pipeline.run_round(10.0, &mut rng).fusion.is_ok());
//! ```
//!
//! [paper]: https://doi.org/10.7873/DATE.2014.067

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod closed_loop;
mod config;
pub mod metrics;
mod pipeline;
mod runner;
pub mod scenario;
pub mod sweep;
pub mod transport;

pub use config::{DetectionMode, PipelineConfig};
pub use pipeline::{FusionPipeline, PipelineBuilder, RoundOutcome};
pub use runner::{BatchSummary, ScenarioRunner};
pub use scenario::Scenario;
pub use sweep::{ParallelSweeper, SweepGrid, SweepReport};
