//! The static corruption model of one scenario: which sensors it can
//! corrupt, silence and forge, derived once from the declaration alone
//! (no sensor built, no round run). Every static pass reads its fault
//! and attacker facts from here.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use arsf_core::scenario::{AttackerSpec, Scenario, StrategySpec, TruthSpec};
use arsf_sensor::FaultKind;

/// What one scenario can do to its sensors, worst case over rounds.
/// The index sets keep out-of-range indices ([`Scenario::validate`]
/// reports them); each consumer filters to the suite where its claim
/// needs it.
pub(crate) struct Model {
    /// Declared interval widths, in sensor-id order.
    pub(crate) widths: Vec<f64>,
    /// The fusion fault assumption `f`.
    pub(crate) f: usize,
    /// Every sensor carrying a fault, of any kind.
    pub(crate) faulted: BTreeSet<usize>,
    /// The sensors carrying a non-silent fault. A silent sensor sends
    /// nothing or its correct reading, never a corrupted interval.
    pub(crate) corrupting: BTreeSet<usize>,
    /// The fixed compromised set, whatever its strategy.
    pub(crate) attacked: BTreeSet<usize>,
    /// Whether the attacker forges: a fixed set running any strategy but
    /// the truthful one, or random-each-round.
    ///
    /// Every forging strategy routes its proposal through the shared
    /// stealth clamp (the paper's Section III-A argument): in passive
    /// mode the forged interval contains Δ (and hence the truth), in
    /// active mode it is shifted to touch the intersection of the
    /// correct intervals seen so far — a point of maximal coverage,
    /// inside the Marzullo interval while the round's corruption stays
    /// within budget. A forger is therefore provably invisible to the
    /// overlap check under Marzullo-family fusion while at most one
    /// sensor per round is forged within budget.
    pub(crate) forges: bool,
    /// Whether one sensor is re-drawn to attack every round.
    pub(crate) random: bool,
    /// Worst-case transmitting sensors whose intervals may exclude the
    /// truth in one round: the corrupting faults union the forged set,
    /// plus one for random-each-round, capped at the suite size. A
    /// fault counts whatever its probability.
    pub(crate) corrupt: usize,
    /// Distinct sensors a silent fault can drop from a round, capped at
    /// the suite size; one with a corrupting fault too counts in both.
    pub(crate) silent: usize,
    /// Worst-case per-round drift `|Δtruth|`: `None` closed-loop, where
    /// the truth is the vehicle's actual speed.
    pub(crate) truth_rate: Option<f64>,
    /// Fused outputs per round: the platoon size closed-loop, else 1.
    pub(crate) vehicles: usize,
}

impl Model {
    /// Derives the model a scenario declares.
    pub(crate) fn of(scenario: &Scenario) -> Self {
        let widths = scenario.suite.widths();
        let n = widths.len();
        let mut silenced = BTreeSet::new();
        let mut corrupting = BTreeSet::new();
        for (sensor, fault) in &scenario.faults {
            if matches!(fault.kind(), FaultKind::Silent) {
                silenced.insert(*sensor);
            } else {
                corrupting.insert(*sensor);
            }
        }
        let faulted = silenced.union(&corrupting).copied().collect();
        let (attacked, forges, random) = match &scenario.attacker {
            AttackerSpec::Fixed { sensors, strategy } => (
                sensors.iter().copied().collect(),
                *strategy != StrategySpec::Truthful,
                false,
            ),
            AttackerSpec::RandomEachRound => (BTreeSet::new(), true, true),
            _ => (BTreeSet::new(), false, false),
        };
        let forged = if forges {
            corrupting.union(&attacked).count()
        } else {
            corrupting.len()
        };
        let truth_rate = match scenario.truth {
            _ if scenario.closed_loop.is_some() => None,
            TruthSpec::Constant(_) => Some(0.0),
            TruthSpec::Ramp { rate_per_round, .. } => Some(rate_per_round.abs()),
        };
        let vehicles = scenario
            .closed_loop
            .as_ref()
            .and_then(|spec| spec.platoon.as_ref())
            .map_or(1, |platoon| platoon.size.max(1));
        Model {
            f: scenario.f,
            corrupt: (forged + usize::from(random)).min(n),
            silent: silenced.len().min(n),
            widths,
            faulted,
            corrupting,
            attacked,
            forges,
            random,
            truth_rate,
            vehicles,
        }
    }

    /// The worst-case number of distinct sensors forged in one round:
    /// the stealth clamp's coverage argument only closes when it is at
    /// most one.
    pub(crate) fn forged_per_round(&self) -> usize {
        if self.random {
            1
        } else if self.forges {
            self.attacked.len()
        } else {
            0
        }
    }

    /// The in-range sensors that can ever transmit a corrupted interval,
    /// in ascending order: the corrupting faults and the forged fixed
    /// set, or every sensor under a random-each-round attacker.
    pub(crate) fn suspects(&self) -> Vec<usize> {
        let n = self.widths.len();
        if self.random {
            return (0..n).collect();
        }
        let mut suspects = self.corrupting.clone();
        if self.forges {
            suspects.extend(&self.attacked);
        }
        suspects.range(..n).copied().collect()
    }

    /// Compares two attackers in the strength lattice: the product order
    /// of whether each forges and [`Model::forged_per_round`]. An
    /// attacker that does not forge forges on no sensor, so the product
    /// order is total here.
    ///
    /// `Less` means `self` is provably the weaker attacker — it forges
    /// no more than `other` does, on no more sensors per round — so no
    /// worst-case metric bound can be larger under it.
    pub(crate) fn strength_cmp(&self, other: &Model) -> Ordering {
        let rank = |model: &Model| (model.forges, model.forged_per_round());
        rank(self).cmp(&rank(other))
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::collections::BTreeSet;

    use arsf_core::scenario::{AttackerSpec, ClosedLoopSpec, StrategySpec, SuiteSpec};
    use arsf_sensor::{FaultKind, FaultModel};

    use super::*;

    fn fixed(sensors: Vec<usize>, strategy: StrategySpec) -> AttackerSpec {
        AttackerSpec::Fixed { sensors, strategy }
    }

    #[test]
    fn extracts_widths_sets_and_budgets() {
        let scenario = Scenario::new("m", SuiteSpec::Landshark)
            .with_fault(2, FaultModel::new(FaultKind::Silent, 0.5))
            .with_fault(3, FaultModel::new(FaultKind::Bias { offset: 3.0 }, 0.2))
            .with_fault(3, FaultModel::new(FaultKind::Silent, 0.1))
            .with_attacker(fixed(vec![0, 3], StrategySpec::PhantomOptimal))
            .with_truth(TruthSpec::Ramp {
                start: 5.0,
                rate_per_round: -0.25,
            });
        let model = Model::of(&scenario);
        assert_eq!((model.widths, model.f), (vec![0.2, 0.2, 1.0, 2.0], 1));
        assert_eq!(model.faulted, BTreeSet::from([2, 3]));
        assert_eq!(model.corrupting, BTreeSet::from([3]));
        assert_eq!(model.attacked, BTreeSet::from([0, 3]));
        assert!(model.forges && !model.random);
        // Sensor 3 is faulted *and* attacked, and silent too.
        assert_eq!((model.corrupt, model.silent), (2, 2));
        assert_eq!((model.truth_rate, model.vehicles), (Some(0.25), 1));
        // Closed-loop, the truth is the vehicle's speed: no drift bound.
        let platoon = scenario.with_closed_loop(ClosedLoopSpec::new(10.0).with_platoon(3, 0.05));
        let model = Model::of(&platoon);
        assert_eq!((model.truth_rate, model.vehicles), (None, 3));
    }

    #[test]
    fn attackers_set_what_is_forged_who_is_suspect_and_who_is_stronger() {
        // (attacker, attacked, forges, corrupt, forged per round,
        // suspects), weakest first.
        let truthful = fixed(vec![0], StrategySpec::Truthful);
        let empty = fixed(vec![], StrategySpec::PhantomOptimal);
        let random = AttackerSpec::RandomEachRound;
        let wide = fixed(vec![0, 2, 0, 9], StrategySpec::GreedyHigh);
        let mut models = Vec::new();
        for (attacker, attacked, forges, corrupt, per_round, suspects) in [
            (AttackerSpec::None, vec![], false, 0, 0, vec![]),
            (truthful, vec![0], false, 0, 0, vec![]),
            (empty, vec![], true, 0, 0, vec![]),
            (random, vec![], true, 1, 1, vec![0, 1, 2, 3]),
            // Duplicates count once; only the suspects drop index 9.
            (wide, vec![0, 2, 9], true, 3, 3, vec![0, 2]),
        ] {
            let model =
                Model::of(&Scenario::new("m", SuiteSpec::Landshark).with_attacker(attacker));
            assert_eq!(model.attacked, BTreeSet::from_iter(attacked));
            assert_eq!((model.forges, model.corrupt), (forges, corrupt));
            assert_eq!(model.forged_per_round(), per_round);
            assert_eq!(model.suspects(), suspects);
            models.push(model);
        }
        // Truthful forges nothing: as strong as no attacker at all. The
        // rest ascend strictly: an empty forger is above the truthful one
        // on the first axis only, and below random-each-round on the
        // second only.
        assert_eq!(models[0].strength_cmp(&models[1]), Ordering::Equal);
        for pair in models[1..].windows(2) {
            assert_eq!(pair[0].strength_cmp(&pair[1]), Ordering::Less);
            assert_eq!(pair[1].strength_cmp(&pair[0]), Ordering::Greater);
        }
    }
}
