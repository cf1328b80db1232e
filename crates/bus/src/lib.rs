//! A discrete-event shared broadcast bus (CAN-like).
//!
//! The paper's threat model hinges on one property of in-vehicle networks:
//! **messages are broadcast** — "in the presence of a shared bus where
//! messages are broadcast to all components connected to the network, the
//! attacker may consider all other measurements before sending her own".
//! This crate provides that substrate:
//!
//! * [`Frame`]/[`FrameId`]/[`Payload`] — CAN-flavoured frames where a
//!   numerically lower id wins arbitration,
//! * [`Node`] — the component interface: react to every broadcast frame,
//!   transmit in your TDMA slot; nodes may borrow, and connecting
//!   `&mut node` leaves it readable once the bus is dropped,
//! * [`BroadcastBus`] — the deterministic event loop: per slot, the owner
//!   transmits, pending frames are arbitrated by id, and every frame is
//!   delivered to every node (including its sender),
//! * a ready-made [`FixedSensorNode`] for tests and custom topologies;
//!   the fusion controller and attacker nodes live in `arsf-core`, wired
//!   on top of this substrate.
//!
//! # Example
//!
//! ```
//! use arsf_bus::{BroadcastBus, FixedSensorNode, FrameId, NodeId, Payload};
//! use arsf_interval::Interval;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut bus = BroadcastBus::new();
//! let mut sensor = FixedSensorNode::new(NodeId::new(0), FrameId::new(10), 0);
//! sensor.set_reading(Interval::new(9.5, 10.5)?);
//! bus.add_node(Box::new(sensor));
//! let frames = bus.run_slots(&[NodeId::new(0)]);
//! assert_eq!(frames.len(), 1);
//! assert!(matches!(frames[0].payload, Payload::Measurement { sensor: 0, .. }));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bus;
mod frame;
mod node;
mod nodes;

pub use bus::BroadcastBus;
pub use frame::{Frame, FrameId, Payload, Ticks};
pub use node::{Node, NodeContext, NodeId};
pub use nodes::FixedSensorNode;
