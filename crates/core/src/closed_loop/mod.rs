//! Closed-loop vehicle simulation: the LandShark case study as a
//! first-class engine workload.
//!
//! The DATE'14 case study evaluates the schedule recommendation *inside
//! the control loop*: a LandShark unmanned ground vehicle holds a speed
//! target while an attacker forges sensor intervals, and a high-level
//! supervisor preempts the low-level controller whenever the fusion
//! interval escapes the safety envelope `[v − δ2, v + δ1]`. This module
//! hosts that loop next to the open-loop [`FusionPipeline`](crate::FusionPipeline)
//! so the declarative [`Scenario`](crate::Scenario) / sweep machinery can
//! drive either one — a grid cell may run a bare fusion pipeline, a
//! single vehicle, or a whole platoon (see
//! [`ClosedLoopSpec`](crate::scenario::ClosedLoopSpec)).
//!
//! * `vehicle` — longitudinal point-mass dynamics (crate-private),
//! * [`controller`] — the low-level PI speed controller,
//! * [`supervisor`] — the fusion-bound safety supervisor (Table II's
//!   violation statistics),
//! * [`landshark`] — one vehicle: suite + persistent fusion engine +
//!   controller + supervisor,
//! * [`platoon`] — the three-LandShark platoon with gap tracking.

pub mod controller;
pub mod landshark;
pub mod platoon;
pub mod supervisor;
mod vehicle;
