//! Executing a fusion round over the `arsf-bus` broadcast substrate.
//!
//! [`FusionPipeline::run_round_into`] drives rounds directly for
//! experiment throughput; this module runs a round of the *same* pipeline
//! through real bus machinery — sensor nodes, an eavesdropping attacker
//! tap per compromised sensor, and a fusion controller node. Each tap
//! builds its view from the frames it observed on the wire and hands it
//! to the pipeline's own slot step; the controller fuses and detects
//! through the pipeline's own fuser and detector. This demonstrates that
//! the paper's information model (the attacker sees exactly the frames
//! broadcast before her slot) is faithfully realised by a CAN-style
//! broadcast transport.

use std::cell::RefCell;

use arsf_bus::{BroadcastBus, FixedSensorNode, Frame, FrameId, Node, NodeContext, NodeId, Payload};
use arsf_detect::RoundAssessment;
use arsf_fusion::{Fuser, FusionError};
use arsf_interval::Interval;
use arsf_schedule::TransmissionOrder;

use crate::pipeline::SlotStep;
use crate::FusionPipeline;

/// The observable outcome of one bus round.
#[derive(Debug, Clone, PartialEq)]
pub struct BusRound {
    /// Every frame that hit the wire, in order.
    pub frames: Vec<Frame>,
    /// Measurement payloads in transmission order.
    pub transmitted: Vec<(usize, Interval<f64>)>,
    /// The controller's fusion result.
    pub fusion: Result<Interval<f64>, FusionError>,
    /// Sensors the controller flagged (broadcast as alert frames too).
    pub flagged: Vec<usize>,
    /// Sensors a temporal detector has condemned so far (ascending;
    /// empty for memoryless detectors).
    pub condemned: Vec<usize>,
}

/// Runs one round of `pipeline` over a freshly-built broadcast bus.
///
/// `readings[i]` is sensor `i`'s **correct** reading for this round (the
/// attacker reads hers before forging); `order` fixes the TDMA slots; the
/// controller transmits last and broadcasts its fusion interval, then one
/// alert frame per flagged sensor in slot order: the fusion frame (id
/// `0x040`) wins arbitration over the alerts (`0x050`), so a listener has
/// the interval before the alerts about it. The pipeline's attacker, fault
/// assumption, fuser and detector run the round, and it counts as one of
/// the pipeline's rounds (a stateful fuser or detector carries on).
///
/// # Panics
///
/// Panics if `readings` and `order` do not both cover the pipeline's
/// suite.
///
/// # Example
///
/// ```
/// use arsf_core::transport::run_bus_round;
/// use arsf_core::FusionPipeline;
/// use arsf_interval::Interval;
/// use arsf_schedule::TransmissionOrder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let readings = vec![
///     Interval::new(9.9, 10.1)?,
///     Interval::new(9.5, 10.5)?,
///     Interval::new(9.0, 11.0)?,
/// ];
/// let suite = arsf_sensor::suite::from_widths(&[0.2, 1.0, 2.0]);
/// let mut pipeline = FusionPipeline::builder(suite).build();
/// let order = TransmissionOrder::identity(3);
/// let round = run_bus_round(&mut pipeline, &readings, &order);
/// assert!(round.fusion.clone()?.contains(10.0));
/// assert_eq!(round.transmitted.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn run_bus_round<F: Fuser<f64>>(
    pipeline: &mut FusionPipeline<F>,
    readings: &[Interval<f64>],
    order: &TransmissionOrder,
) -> BusRound {
    let n = pipeline.suite().len();
    assert_eq!(readings.len(), n, "one reading per sensor");
    assert_eq!(order.len(), n, "one slot per sensor");

    let step = RefCell::new(pipeline.begin_given_round(readings, order));
    let controller_id = NodeId::new(n);
    let mut controller = ControllerNode {
        id: controller_id,
        step: &step,
        collected: Vec::with_capacity(n),
        fusion: Err(FusionError::EmptyInput),
        assessment: RoundAssessment::default(),
    };
    let frames = {
        let mut bus = BroadcastBus::new();
        // Honest sensors broadcast their reading; compromised ones are
        // attacker taps.
        for (slot, &sensor) in order.iter().enumerate() {
            let (id, frame_id) = (NodeId::new(sensor), FrameId::new(0x100 + sensor as u32));
            if step.borrow().attacks(sensor) {
                bus.add_node(Box::new(AttackerTap {
                    id,
                    frame_id,
                    slot,
                    seen: Vec::with_capacity(n),
                    step: &step,
                }));
            } else {
                let mut node = FixedSensorNode::new(id, frame_id, sensor);
                node.set_reading(readings[sensor]);
                bus.add_node(Box::new(node));
            }
        }
        bus.add_node(Box::new(&mut controller));
        // TDMA: sensor slots in schedule order, controller last.
        let mut owners: Vec<NodeId> = order.iter().map(|&s| NodeId::new(s)).collect();
        owners.push(controller_id);
        bus.run_slots(&owners)
    };

    let transmitted = frames
        .iter()
        .filter_map(|fr| match fr.payload {
            Payload::Measurement { sensor, interval } => Some((sensor, interval)),
            _ => None,
        })
        .collect();
    BusRound {
        fusion: controller.fusion,
        flagged: controller.assessment.flagged,
        condemned: controller.assessment.condemned,
        transmitted,
        frames,
    }
}

/// One compromised sensor's bus presence: records every measurement on
/// the wire and, in its own slot, broadcasts what the pipeline's slot
/// step forges from them.
struct AttackerTap<'r, 'p, F: Fuser<f64>> {
    id: NodeId,
    frame_id: FrameId,
    slot: usize,
    seen: Vec<(usize, Interval<f64>)>,
    step: &'r RefCell<SlotStep<'p, F>>,
}

impl<F: Fuser<f64>> Node for AttackerTap<'_, '_, F> {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_frame(&mut self, frame: &Frame, _ctx: &mut NodeContext) {
        if let Payload::Measurement { sensor, interval } = frame.payload {
            self.seen.push((sensor, interval));
        }
    }

    fn on_slot(&mut self, ctx: &mut NodeContext) {
        let sent = self.step.borrow_mut().transmit(self.slot, &self.seen);
        if let Some((sensor, interval)) = sent {
            ctx.transmit(self.frame_id, Payload::Measurement { sensor, interval });
        }
    }
}

/// The fusion controller: collects measurement frames, fuses and detects
/// through the pipeline in its slot, and broadcasts the fusion interval
/// and then one alert frame per flagged sensor.
struct ControllerNode<'r, 'p, F: Fuser<f64>> {
    id: NodeId,
    step: &'r RefCell<SlotStep<'p, F>>,
    collected: Vec<(usize, Interval<f64>)>,
    fusion: Result<Interval<f64>, FusionError>,
    assessment: RoundAssessment,
}

impl<F: Fuser<f64>> Node for ControllerNode<'_, '_, F> {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_frame(&mut self, frame: &Frame, _ctx: &mut NodeContext) {
        if let Payload::Measurement { sensor, interval } = frame.payload {
            self.collected.push((sensor, interval));
        }
    }

    fn on_slot(&mut self, ctx: &mut NodeContext) {
        self.fusion = self
            .step
            .borrow_mut()
            .finish(&self.collected, &mut self.assessment);
        if let Ok(fused) = self.fusion {
            ctx.transmit(FrameId::new(0x040), Payload::Fusion { interval: fused });
            for &sensor in &self.assessment.flagged {
                ctx.transmit(FrameId::new(0x050), Payload::Alert { sensor });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineConfig;
    use arsf_attack::model::SlotContext;
    use arsf_attack::strategies::PhantomOptimal;
    use arsf_attack::{AttackStrategy, AttackerConfig, Truthful};
    use arsf_fusion::marzullo;
    use arsf_schedule::SchedulePolicy;

    fn iv(lo: f64, hi: f64) -> Interval<f64> {
        Interval::new(lo, hi).unwrap()
    }

    fn readings() -> Vec<Interval<f64>> {
        vec![iv(9.9, 10.1), iv(9.6, 10.6), iv(9.2, 11.2)]
    }

    /// A bus round of a pipeline over a `from_widths` suite.
    fn bus_round(
        readings: &[Interval<f64>],
        widths: &[f64],
        order: &TransmissionOrder,
        f: usize,
        attacker: Option<(AttackerConfig, Box<dyn AttackStrategy>)>,
    ) -> BusRound {
        let mut pipeline = FusionPipeline::builder(arsf_sensor::suite::from_widths(widths))
            .config(PipelineConfig::new(f, SchedulePolicy::Ascending))
            .build();
        pipeline.set_attacker(attacker);
        run_bus_round(&mut pipeline, readings, order)
    }

    #[test]
    fn honest_bus_round_matches_direct_fusion() {
        let r = readings();
        let widths = vec![0.2, 1.0, 2.0];
        let order = TransmissionOrder::identity(3);
        let round = bus_round(&r, &widths, &order, 1, None);
        let direct = marzullo::fuse(&r, 1);
        assert_eq!(round.fusion, direct);
        assert!(round.flagged.is_empty());
        // n measurement frames + 1 fusion frame on the wire.
        assert_eq!(round.frames.len(), 4);
    }

    #[test]
    fn transmission_respects_schedule_order() {
        let r = readings();
        let widths = vec![0.2, 1.0, 2.0];
        let order = TransmissionOrder::new(vec![2, 0, 1]).unwrap();
        let round = bus_round(&r, &widths, &order, 1, None);
        let sensors: Vec<usize> = round.transmitted.iter().map(|(s, _)| *s).collect();
        assert_eq!(sensors, vec![2, 0, 1]);
    }

    #[test]
    fn truthful_attacker_is_transparent() {
        let r = readings();
        let widths = vec![0.2, 1.0, 2.0];
        let order = TransmissionOrder::identity(3);
        let attacked = Some((AttackerConfig::new([0], 1), Box::new(Truthful) as _));
        let round = bus_round(&r, &widths, &order, 1, attacked);
        assert_eq!(round.fusion, marzullo::fuse(&r, 1));
    }

    #[test]
    fn eavesdropping_attacker_stays_stealthy_and_widens_fusion() {
        let r = readings();
        let widths = vec![0.2, 1.0, 2.0];
        // Descending: the attacked precise sensor transmits last.
        let order = TransmissionOrder::new(vec![2, 1, 0]).unwrap();
        let attacked = Some((
            AttackerConfig::new([0], 1),
            Box::new(PhantomOptimal::new()) as _,
        ));
        let round = bus_round(&r, &widths, &order, 1, attacked);
        let attacked_width = round.fusion.unwrap().width();
        let honest_width = marzullo::fuse(&r, 1).unwrap().width();
        assert!(
            round.flagged.is_empty(),
            "optimal attacker is never flagged"
        );
        assert!(
            attacked_width >= honest_width,
            "attack {attacked_width} must not lose to honesty {honest_width}"
        );
    }

    #[test]
    fn blatant_forgery_triggers_alert_frames() {
        // A custom strategy that ignores stealth entirely.
        struct Blatant;
        impl AttackStrategy for Blatant {
            fn forge(&mut self, ctx: &SlotContext<'_>) -> Interval<f64> {
                Interval::centered(ctx.own_correct.midpoint() + 100.0, ctx.width * 0.5)
                    .expect("finite")
            }
            fn name(&self) -> &str {
                "blatant"
            }
        }
        let r = readings();
        let widths = vec![0.2, 1.0, 2.0];
        let order = TransmissionOrder::identity(3);
        let attacked = Some((AttackerConfig::new([0], 1), Box::new(Blatant) as _));
        let round = bus_round(&r, &widths, &order, 1, attacked);
        assert_eq!(round.flagged, vec![0]);
        let alerts = round
            .frames
            .iter()
            .filter(|f| matches!(f.payload, Payload::Alert { .. }))
            .count();
        assert_eq!(alerts, 1);
    }

    #[test]
    fn multi_sensor_attacker_shares_one_strategy() {
        // n = 5, f = 2, attacker controls sensors 0 and 1.
        let r = vec![
            iv(9.9, 10.1),
            iv(9.8, 10.2),
            iv(9.5, 10.5),
            iv(9.0, 11.0),
            iv(8.5, 11.5),
        ];
        let widths = vec![0.2, 0.4, 1.0, 2.0, 3.0];
        let order = TransmissionOrder::new(vec![4, 3, 2, 0, 1]).unwrap();
        let attacked = Some((
            AttackerConfig::new([0, 1], 2),
            Box::new(PhantomOptimal::new()) as _,
        ));
        let round = bus_round(&r, &widths, &order, 2, attacked);
        assert!(round.fusion.is_ok());
        assert!(round.flagged.is_empty());
        assert_eq!(round.transmitted.len(), 5);
    }
}
