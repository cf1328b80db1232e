//! Ready-made nodes for tests and simple topologies.

use arsf_interval::Interval;

use crate::{Frame, FrameId, Node, NodeContext, NodeId, Payload};

/// A sensor node that broadcasts an externally-set interval in its slot.
///
/// The simulation layer sets the reading each round (sampling is its
/// concern, transport is ours); the node transmits the latest reading
/// once per slot and goes quiet when none is pending.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedSensorNode {
    id: NodeId,
    frame_id: FrameId,
    sensor: usize,
    reading: Option<Interval<f64>>,
}

impl FixedSensorNode {
    /// Creates a sensor node broadcasting measurements for logical sensor
    /// `sensor` under arbitration id `frame_id`.
    pub fn new(id: NodeId, frame_id: FrameId, sensor: usize) -> Self {
        Self {
            id,
            frame_id,
            sensor,
            reading: None,
        }
    }

    /// Sets the reading to broadcast at the next slot.
    pub fn set_reading(&mut self, interval: Interval<f64>) {
        self.reading = Some(interval);
    }
}

impl Node for FixedSensorNode {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_frame(&mut self, _frame: &Frame, _ctx: &mut NodeContext) {}

    fn on_slot(&mut self, ctx: &mut NodeContext) {
        if let Some(interval) = self.reading.take() {
            ctx.transmit(
                self.frame_id,
                Payload::Measurement {
                    sensor: self.sensor,
                    interval,
                },
            );
        }
    }
}

/// Nodes that only exercise the bus in tests: a frame recorder and a
/// babbling idiot.
#[cfg(test)]
pub(crate) mod test_nodes {
    use super::*;

    /// A passive node recording every frame it observes — the bus-level
    /// equivalent of a logic analyser, and the simplest demonstration that
    /// *anyone* on a broadcast bus sees everything.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct RecorderNode {
        id: NodeId,
        frames: Vec<Frame>,
    }

    impl RecorderNode {
        /// Creates a recorder.
        pub(crate) fn new(id: NodeId) -> Self {
            Self {
                id,
                frames: Vec::new(),
            }
        }

        /// Everything observed so far.
        pub(crate) fn frames(&self) -> &[Frame] {
            &self.frames
        }

        /// Observed measurement payloads as `(sensor, interval)` pairs, in
        /// arrival order.
        pub(crate) fn measurements(&self) -> Vec<(usize, Interval<f64>)> {
            self.frames
                .iter()
                .filter_map(|f| match f.payload {
                    Payload::Measurement { sensor, interval } => Some((sensor, interval)),
                    _ => None,
                })
                .collect()
        }
    }

    impl Node for RecorderNode {
        fn id(&self) -> NodeId {
            self.id
        }

        fn on_frame(&mut self, frame: &Frame, _ctx: &mut NodeContext) {
            self.frames.push(frame.clone());
        }

        fn on_slot(&mut self, _ctx: &mut NodeContext) {}
    }

    /// A babbling-idiot node: the classic CAN failure mode where a broken
    /// component transmits continuously. This one queues a frame in reaction
    /// to **every** frame it observes (plus its own slot), so each slot's
    /// arbitration has to sort it against legitimate traffic.
    ///
    /// Used to test that the bus stays live and that frame-id arbitration
    /// decides wire order within a slot: give the babbler a *high* id
    /// (low priority) and sensor traffic still goes first; give it a low id
    /// and it wins the wire but cannot erase other frames (TDMA still grants
    /// every owner its slot).
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct BabblingNode {
        id: NodeId,
        frame_id: FrameId,
        sent: u64,
    }

    impl BabblingNode {
        /// Creates a babbler transmitting under the given arbitration id.
        pub(crate) fn new(id: NodeId, frame_id: FrameId) -> Self {
            Self {
                id,
                frame_id,
                sent: 0,
            }
        }

        /// How many frames the babbler has queued so far.
        pub(crate) fn sent(&self) -> u64 {
            self.sent
        }
    }

    impl Node for BabblingNode {
        fn id(&self) -> NodeId {
            self.id
        }

        fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeContext) {
            // React to everyone else's traffic (not our own, which would be
            // a tighter loop than even a broken ECU manages).
            if frame.sender != self.id {
                ctx.transmit(self.frame_id, Payload::Custom(self.sent));
                self.sent += 1;
            }
        }

        fn on_slot(&mut self, ctx: &mut NodeContext) {
            ctx.transmit(self.frame_id, Payload::Custom(self.sent));
            self.sent += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_nodes::{BabblingNode, RecorderNode};
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn fixed_sensor_transmits_once_per_reading() {
        let mut s = FixedSensorNode::new(NodeId::new(0), FrameId::new(1), 4);
        let mut ctx = NodeContext::default();
        s.on_slot(&mut ctx);
        assert!(ctx.outbox.is_empty(), "no reading pending");
        s.set_reading(iv(0.0, 1.0));
        s.on_slot(&mut ctx);
        assert_eq!(ctx.outbox.len(), 1);
        // The reading is consumed.
        let mut ctx2 = NodeContext::default();
        s.on_slot(&mut ctx2);
        assert!(ctx2.outbox.is_empty());
        assert_eq!(s.sensor, 4);
    }

    #[test]
    fn babbler_reacts_to_foreign_frames_only() {
        let mut babbler = BabblingNode::new(NodeId::new(5), FrameId::new(0x700));
        let mut ctx = NodeContext::default();
        let own = Frame {
            id: FrameId::new(0x700),
            sender: NodeId::new(5),
            payload: Payload::Custom(0),
            tick: crate::Ticks::new(1),
        };
        babbler.on_frame(&own, &mut ctx);
        assert_eq!(ctx.outbox.len(), 0, "must not react to itself");
        let foreign = Frame {
            sender: NodeId::new(1),
            ..own
        };
        babbler.on_frame(&foreign, &mut ctx);
        assert_eq!(ctx.outbox.len(), 1);
        assert_eq!(babbler.sent(), 1);
    }

    #[test]
    fn recorder_extracts_measurements() {
        let mut r = RecorderNode::new(NodeId::new(1));
        let frame = Frame {
            id: FrameId::new(2),
            sender: NodeId::new(0),
            payload: Payload::Measurement {
                sensor: 7,
                interval: iv(1.0, 2.0),
            },
            tick: crate::Ticks::new(1),
        };
        let mut ctx = NodeContext::default();
        r.on_frame(&frame, &mut ctx);
        r.on_frame(
            &Frame {
                id: FrameId::new(3),
                sender: NodeId::new(2),
                payload: Payload::Custom(9),
                tick: crate::Ticks::new(2),
            },
            &mut ctx,
        );
        assert_eq!(r.frames().len(), 2);
        assert_eq!(r.measurements(), vec![(7, iv(1.0, 2.0))]);
    }
}
