//! Sensor communication schedules.
//!
//! On a shared broadcast bus every component sees every transmitted
//! message, so an attacker who controls some sensors learns the correct
//! sensors' intervals *transmitted before her slots*. The paper therefore
//! studies how the **transmission order** changes the attacker's power and
//! recommends the *Ascending* schedule (most precise sensor first).
//!
//! The only information available a priori for scheduling is the fixed
//! interval width of each sensor, so every policy here is a function of
//! the width vector (plus a round counter and randomness):
//!
//! * [`SchedulePolicy::Ascending`] — widths increasing (paper's choice),
//! * [`SchedulePolicy::Descending`] — widths decreasing,
//! * [`SchedulePolicy::Random`] — fresh uniform order each round
//!   (case-study comparison, Table II),
//! * [`SchedulePolicy::Fixed`] — an explicit order,
//! * [`SchedulePolicy::Rotating`] — round-robin rotation of a fixed order.
//!
//! # Example
//!
//! ```
//! use arsf_schedule::SchedulePolicy;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let widths = [5.0, 17.0, 11.0];
//! let mut rng = StdRng::seed_from_u64(0);
//! let asc = SchedulePolicy::Ascending.order(&widths, 0, &mut rng);
//! assert_eq!(asc.as_slice(), &[0, 2, 1]); // 5 <= 11 <= 17
//! let desc = SchedulePolicy::Descending.order(&widths, 0, &mut rng);
//! assert_eq!(desc.as_slice(), &[1, 2, 0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod order;
mod policy;

pub use order::TransmissionOrder;
pub use policy::SchedulePolicy;
