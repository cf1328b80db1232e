//! The node interface.

use core::fmt;

use crate::{Frame, FrameId, Payload};

/// Identity of a component on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a dense index.
    pub fn new(index: usize) -> Self {
        Self(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The transmit interface handed to nodes during callbacks.
///
/// Frames queued here enter arbitration at the current slot boundary;
/// nothing reaches the wire until the bus arbitrates.
#[derive(Debug, Default)]
pub struct NodeContext {
    pub(crate) outbox: Vec<(FrameId, Payload)>,
}

impl NodeContext {
    /// Queues a frame for transmission.
    pub fn transmit(&mut self, id: FrameId, payload: Payload) {
        self.outbox.push((id, payload));
    }
}

/// A component connected to the broadcast bus.
///
/// All methods are infallible: a node that cannot act simply does
/// nothing. Nodes see *every* frame — broadcast is what gives the paper's
/// attacker her information advantage.
pub trait Node {
    /// This node's identity.
    fn id(&self) -> NodeId;

    /// Called for every frame on the wire, including this node's own.
    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeContext);

    /// Called when this node's TDMA slot opens.
    fn on_slot(&mut self, ctx: &mut NodeContext);
}

/// A borrowed node: connect `&mut node` to read its state back once the
/// bus is dropped.
impl<N: Node + ?Sized> Node for &mut N {
    fn id(&self) -> NodeId {
        (**self).id()
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeContext) {
        (**self).on_frame(frame, ctx);
    }

    fn on_slot(&mut self, ctx: &mut NodeContext) {
        (**self).on_slot(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::new(4).to_string(), "n4");
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn context_queues_frames() {
        let mut ctx = NodeContext::default();
        ctx.transmit(FrameId::new(5), Payload::Custom(7));
        ctx.transmit(FrameId::new(3), Payload::Custom(8));
        assert_eq!(ctx.outbox.len(), 2);
    }
}
