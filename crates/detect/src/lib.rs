//! Attack and fault detection for interval sensor fusion.
//!
//! The paper's detection mechanism is geometric: after fusing the `n`
//! transmitted intervals, **any interval disjoint from the fusion interval
//! must be compromised** — a correct interval contains the true value, the
//! fusion interval contains every candidate true value, so the two must
//! overlap. A stealthy attacker therefore constrains her forged intervals
//! to intersect the fusion interval ([`ImmediateDetector`]).
//!
//! Footnote 1 of the paper sketches the planned refinement: tolerate
//! *transient* faults by condemning a sensor only when it violates the
//! overlap check more than `k` times in a window of `w` rounds. That
//! temporal detector is [`WindowedDetector`]; it still flags every
//! violation the round it happens.
//!
//! The round engine in `arsf-core` drives detectors through the
//! object-safe [`Detector`] trait: [`NoDetector`],
//! [`ImmediateDetector`] and [`WindowedDetector`] ship as stock
//! implementations, and new detectors plug in without touching the
//! engine. `arsf-core`'s `DetectionMode` names the three stock
//! configurations and states, from their parameters alone, whether each
//! can flag or condemn and at what latency, so analysis layers reason
//! about detectors without building one.
//!
//! # Example
//!
//! ```
//! use arsf_detect::{Detector, ImmediateDetector, RoundAssessment};
//! use arsf_fusion::marzullo;
//! use arsf_interval::Interval;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // (sensor id, transmitted interval), in slot order.
//! let transmitted = [
//!     (0, Interval::new(9.0, 11.0)?),
//!     (1, Interval::new(9.5, 10.5)?),
//!     (2, Interval::new(30.0, 31.0)?), // blatantly forged
//! ];
//! let intervals: Vec<_> = transmitted.iter().map(|(_, iv)| *iv).collect();
//! let fused = marzullo::fuse(&intervals, 1)?;
//! let mut out = RoundAssessment::default();
//! ImmediateDetector.assess(&transmitted, &fused, &mut out);
//! assert_eq!(out.flagged, vec![2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod detector;
mod window;

pub use detector::{Detector, ImmediateDetector, NoDetector, RoundAssessment};
pub use window::{WindowVerdict, WindowedDetector};
