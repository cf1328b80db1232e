//! Random fault injection.
//!
//! The paper assumes uncompromised sensors are always correct and names
//! random faults as the planned extension ("an extension of this work will
//! introduce random faults in addition to attacks", Section V). This module
//! implements that extension: a [`FaultModel`] attached to a sensor fires
//! probabilistically each round and corrupts the measurement so that the
//! resulting interval need *not* contain the true value.

use rand::Rng;

/// What a fault does to the measurement when it fires.
///
/// # Example
///
/// ```
/// use arsf_sensor::FaultKind;
///
/// let stuck = FaultKind::StuckAt { value: 0.0 };
/// assert_eq!(stuck.corrupt(10.0), Some(0.0));
/// let bias = FaultKind::Bias { offset: 2.0 };
/// assert_eq!(bias.corrupt(10.0), Some(12.0));
/// assert_eq!(FaultKind::Silent.corrupt(10.0), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The sensor reports a fixed value regardless of the truth (a stuck
    /// ADC, a frozen filter).
    StuckAt {
        /// The reported value.
        value: f64,
    },
    /// The sensor reports the truth plus a constant offset larger than its
    /// error band (mis-calibration, spoofed reference).
    Bias {
        /// The additive offset.
        offset: f64,
    },
    /// The sensor reports the truth scaled by a factor (wheel slip on an
    /// encoder, Doppler error).
    Scale {
        /// The multiplicative factor.
        factor: f64,
    },
    /// The sensor produces no measurement this round (dropped frame).
    Silent,
}

impl FaultKind {
    /// Applies the fault to a truthful measurement, returning the faulty
    /// value or `None` when the reading is dropped entirely.
    pub fn corrupt(&self, truth: f64) -> Option<f64> {
        match *self {
            FaultKind::StuckAt { value } => Some(value),
            FaultKind::Bias { offset } => Some(truth + offset),
            FaultKind::Scale { factor } => Some(truth * factor),
            FaultKind::Silent => None,
        }
    }
}

/// A fault kind plus a per-round firing probability.
///
/// # Example
///
/// ```
/// use arsf_sensor::{FaultKind, FaultModel};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let model = FaultModel::new(FaultKind::Bias { offset: 5.0 }, 1.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// assert!(model.fires(&mut rng)); // probability 1.0 always fires
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    kind: FaultKind,
    probability: f64,
}

impl FaultModel {
    /// Creates a fault model firing with the given per-round probability
    /// (clamped to `[0, 1]`).
    pub fn new(kind: FaultKind, probability: f64) -> Self {
        Self {
            kind,
            probability: probability.clamp(0.0, 1.0),
        }
    }

    /// The fault behaviour when firing.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The per-round firing probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Rolls the dice for this round.
    #[inline]
    pub fn fires<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        if self.probability <= 0.0 {
            return false;
        }
        if self.probability >= 1.0 {
            return true;
        }
        rng.gen_bool(self.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stuck_at_ignores_truth() {
        let k = FaultKind::StuckAt { value: 3.0 };
        assert_eq!(k.corrupt(100.0), Some(3.0));
        assert_eq!(k.corrupt(-5.0), Some(3.0));
    }

    #[test]
    fn bias_shifts_truth() {
        let k = FaultKind::Bias { offset: -2.5 };
        assert_eq!(k.corrupt(10.0), Some(7.5));
    }

    #[test]
    fn scale_multiplies_truth() {
        let k = FaultKind::Scale { factor: 1.5 };
        assert_eq!(k.corrupt(10.0), Some(15.0));
        assert_eq!(k.corrupt(0.0), Some(0.0));
    }

    #[test]
    fn silent_drops_reading() {
        assert_eq!(FaultKind::Silent.corrupt(10.0), None);
    }

    #[test]
    fn probability_is_clamped() {
        assert_eq!(FaultModel::new(FaultKind::Silent, 7.0).probability(), 1.0);
        assert_eq!(FaultModel::new(FaultKind::Silent, -1.0).probability(), 0.0);
    }

    #[test]
    fn extreme_probabilities_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        let never = FaultModel::new(FaultKind::Silent, 0.0);
        let always = FaultModel::new(FaultKind::Silent, 1.0);
        for _ in 0..100 {
            assert!(!never.fires(&mut rng));
            assert!(always.fires(&mut rng));
        }
    }

    #[test]
    fn intermediate_probability_fires_sometimes() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = FaultModel::new(FaultKind::Silent, 0.5);
        let fired = (0..1000).filter(|_| model.fires(&mut rng)).count();
        assert!((300..700).contains(&fired), "fired {fired} of 1000");
    }
}
