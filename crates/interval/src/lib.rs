//! Closed-interval arithmetic and *k*-coverage primitives for
//! attack-resilient sensor fusion.
//!
//! This crate is the numeric substrate of the [DATE 2014 paper
//! *Attack-Resilient Sensor Fusion*][paper] reproduction. Every sensor
//! reading in that system is abstracted as a **closed real interval**
//! guaranteed (for a correct sensor) to contain the true value of the
//! measured physical variable. Everything the fusion layer, the attacker and
//! the detector do reduces to a handful of interval operations implemented
//! here:
//!
//! * [`Interval`] — a validated closed interval `[lo, hi]` generic over a
//!   [`Scalar`] coordinate type (`f64`, `f32`, `i64`, `i32`),
//! * slice-level operations ([`ops`]) — common intersection, convex hull,
//!   pairwise-overlap checks,
//! * the *k*-coverage kernel ([`coverage`]) — the smallest and
//!   largest points contained in at least `k` of `n` intervals, which is
//!   exactly the primitive behind Marzullo's fusion algorithm,
//! * ASCII diagram rendering ([`render`]) used to regenerate the paper's
//!   interval figures in a terminal.
//!
//! # Example
//!
//! Three sensors measure the same speed; the middle of the pack is computed
//! as the span of points covered by at least two of them:
//!
//! ```
//! use arsf_interval::{coverage::k_covered_span, Interval};
//!
//! # fn main() -> Result<(), arsf_interval::IntervalError> {
//! let readings = [
//!     Interval::new(9.0, 11.0)?,
//!     Interval::new(9.5, 10.5)?,
//!     Interval::new(10.0, 12.0)?,
//! ];
//! let fused = k_covered_span(&readings, 2).expect("two readings overlap");
//! assert_eq!(fused, Interval::new(9.5, 11.0)?);
//! # Ok(())
//! # }
//! ```
//!
//! [paper]: https://doi.org/10.7873/DATE.2014.067

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coverage;
mod error;
mod interval;
pub mod ops;
pub mod render;
mod scalar;

pub use error::IntervalError;
pub use interval::Interval;
pub use scalar::Scalar;
