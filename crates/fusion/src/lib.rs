//! Fault-tolerant interval sensor fusion.
//!
//! This crate implements the fusion layer of the [DATE 2014 paper
//! *Attack-Resilient Sensor Fusion*][paper]:
//!
//! * [`marzullo`] — Marzullo's algorithm: given `n` abstract-sensor
//!   intervals and an assumed fault count `f`, the fusion interval spans
//!   the smallest to the largest point contained in at least `n − f`
//!   intervals (a sorting network and one sweep on the stack up to 32
//!   intervals, an `O(n log n)` sort sweep above),
//! * [`naive`] — an `O(n²)` reference implementation used to cross-validate
//!   the production kernel in tests and benchmarks,
//! * [`brooks_iyengar`] — the Brooks–Iyengar hybrid algorithm, the robust
//!   fusion baseline cited by the paper,
//! * [`weighted`] — probabilistic point-fusion baselines (inverse-variance
//!   weighting, midpoint mean/median),
//! * [`bounds`] — the paper's worst-case guarantees (Theorem 2 bound,
//!   `f < ⌈n/3⌉` / `f < ⌈n/2⌉` boundedness conditions) as checkable
//!   predicates,
//! * [`historical`] — dynamics-aware fusion carrying the previous round's
//!   interval forward (the authors' follow-up direction), which clips
//!   forged extensions,
//! * [`Fuser`] — an object-safe trait unifying all fusers (memoryless
//!   and stateful) for the round engine, the scenario runner and the
//!   benchmark harness.
//!
//! # Example
//!
//! ```
//! use arsf_fusion::marzullo::fuse;
//! use arsf_interval::Interval;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Five sensors, at most one faulty: Fig. 1 of the paper with f = 1.
//! let sensors = [
//!     Interval::new(0.0, 6.0)?,
//!     Interval::new(1.0, 4.0)?,
//!     Interval::new(2.0, 8.0)?,
//!     Interval::new(3.0, 9.0)?,
//!     Interval::new(5.0, 10.0)?,
//! ];
//! let fused = fuse(&sensors, 1)?;
//! // Points covered by >= 4 intervals: [3,4] ∪ [5,6]; the span is [3,6].
//! assert_eq!(fused, Interval::new(3.0, 6.0)?);
//! # Ok(())
//! # }
//! ```
//!
//! [paper]: https://doi.org/10.7873/DATE.2014.067

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
pub mod brooks_iyengar;
mod error;
mod fuser;
pub mod historical;
pub mod marzullo;
pub mod naive;
pub mod weighted;

pub use error::FusionError;
pub use fuser::{
    BrooksIyengarFuser, Fuser, HullFuser, IntersectionFuser, InverseVarianceFuser, MarzulloFuser,
    MidpointMedianFuser,
};
