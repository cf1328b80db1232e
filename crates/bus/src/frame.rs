//! Frames and bus time.

use core::fmt;

use arsf_interval::Interval;

use crate::NodeId;

/// Bus time in abstract ticks.
///
/// # Example
///
/// ```
/// use arsf_bus::Ticks;
///
/// let t = Ticks::new(5) + Ticks::new(3);
/// assert_eq!(t.value(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(u64);

impl Ticks {
    /// Creates a tick count.
    pub fn new(value: u64) -> Self {
        Self(value)
    }

    /// The raw tick count.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl core::ops::Add for Ticks {
    type Output = Ticks;

    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A CAN-style frame identifier: numerically **lower ids win
/// arbitration** (dominant bits), exactly as on a real CAN bus.
///
/// # Example
///
/// ```
/// use arsf_bus::FrameId;
///
/// assert!(FrameId::new(0x10) < FrameId::new(0x20)); // 0x10 wins
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u32);

impl FrameId {
    /// Creates a frame id.
    pub fn new(id: u32) -> Self {
        Self(id)
    }

    /// The raw id.
    pub fn value(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:03X}", self.0)
    }
}

/// What a frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// One sensor's abstract measurement interval.
    Measurement {
        /// The logical sensor index the measurement belongs to.
        sensor: usize,
        /// The abstract interval.
        interval: Interval<f64>,
    },
    /// The controller's fused interval for the round.
    Fusion {
        /// The fused interval.
        interval: Interval<f64>,
    },
    /// The controller flags a sensor as compromised.
    Alert {
        /// The flagged sensor index.
        sensor: usize,
    },
    /// Application-defined content.
    Custom(u64),
}

/// One broadcast frame: id, sender, payload and the tick it hit the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Arbitration id.
    pub id: FrameId,
    /// The transmitting node.
    pub sender: NodeId,
    /// The content.
    pub payload: Payload,
    /// When the frame was broadcast.
    pub tick: Ticks,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_arithmetic_and_display() {
        let t = Ticks::new(2) + Ticks::new(40);
        assert_eq!(t.value(), 42);
        assert_eq!(t.to_string(), "t42");
        assert!(Ticks::new(1) < Ticks::new(2));
    }

    #[test]
    fn frame_id_ordering_is_can_arbitration() {
        assert!(FrameId::new(1) < FrameId::new(2));
        assert_eq!(FrameId::new(0x7FF).to_string(), "0x7FF");
    }

    #[test]
    fn payload_variants_carry_data() {
        let m = Payload::Measurement {
            sensor: 3,
            interval: Interval::new(0.0, 1.0).unwrap(),
        };
        assert!(matches!(m, Payload::Measurement { sensor: 3, .. }));
        let a = Payload::Alert { sensor: 1 };
        assert!(matches!(a, Payload::Alert { sensor: 1 }));
    }
}
