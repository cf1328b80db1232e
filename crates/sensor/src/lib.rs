//! Abstract sensor models for attack-resilient sensor fusion.
//!
//! The paper's system model converts every raw sensor reading into an
//! *abstract sensor*: a closed interval centred at the measurement whose
//! radius is derived from the manufacturer's precision guarantee `δ`,
//! inflated by implementation limits such as sampling jitter. A sensor is
//! **correct** when its interval contains the true value and **faulty**
//! otherwise.
//!
//! This crate provides:
//!
//! * [`SensorSpec`] — the static description (name, precision, jitter)
//!   from which interval radii are derived,
//! * [`NoiseModel`] — bounded in-interval noise models; the paper's
//!   analysis is distribution-free, so any bounded model yields a *correct*
//!   sensor,
//! * [`FaultModel`]/[`FaultKind`] — random fault injection (the paper's
//!   Section V extension: faults in addition to attacks),
//! * [`Sensor`] and [`SensorSuite`] — samplable sensors and collections,
//! * [`suite::landshark`] — the LandShark speed-sensing suite from the
//!   case study (GPS, camera, two wheel encoders),
//! * [`Measurement`] — one reading: value + abstract interval.
//!
//! # Example
//!
//! ```
//! use arsf_sensor::{NoiseModel, Sensor, SensorSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let spec = SensorSpec::new("gps", 0.45).with_jitter(0.05);
//! let mut gps = Sensor::new(0, spec, NoiseModel::Uniform);
//! let mut rng = StdRng::seed_from_u64(7);
//! let m = gps.sample(10.0, &mut rng);
//! assert!(m.interval.contains(10.0), "no fault injected, so correct");
//! assert_eq!(m.interval.width(), 1.0); // 2 * (0.45 + 0.05)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod fault;
mod measurement;
mod noise;
mod sensor;
mod spec;
pub mod suite;

pub use fault::{FaultKind, FaultModel};
pub use measurement::Measurement;
pub use noise::NoiseModel;
pub use sensor::{Sensor, SensorId};
pub use spec::{encoder_interval_width, SensorSpec};
pub use suite::SensorSuite;
