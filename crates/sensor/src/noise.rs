//! Bounded measurement-noise models.

use rand::Rng;

/// A bounded noise model producing measurement offsets inside
/// `[-radius, +radius]`.
///
/// The paper deliberately makes **no distributional assumption** about
/// sensor noise — only that a correct sensor's interval contains the true
/// value, which holds exactly when the measurement offset stays within the
/// interval radius. Every model here guarantees that bound, so the choice
/// of model changes the statistics of experiments but never the
/// correctness of a sensor.
///
/// # Example
///
/// ```
/// use arsf_sensor::NoiseModel;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(42);
/// for model in [
///     NoiseModel::None,
///     NoiseModel::Uniform,
///     NoiseModel::Triangular,
///     NoiseModel::ClippedGaussian { sigma_fraction: 0.4 },
///     NoiseModel::ConstantBias { fraction: -0.5 },
/// ] {
///     let offset = model.sample_offset(2.0, &mut rng);
///     assert!(offset.abs() <= 2.0);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseModel {
    /// Measurements equal the true value exactly.
    None,
    /// Offsets drawn uniformly from `[-radius, +radius]` — the paper's own
    /// evaluation enumerates measurement placements uniformly, making this
    /// the default model everywhere in this reproduction.
    Uniform,
    /// Symmetric triangular distribution on `[-radius, +radius]` (sum of
    /// two uniform halves), concentrating mass near the true value.
    Triangular,
    /// Zero-mean Gaussian with standard deviation `sigma_fraction × radius`,
    /// clipped to `[-radius, +radius]` so correctness is preserved.
    ClippedGaussian {
        /// Standard deviation as a fraction of the interval radius.
        sigma_fraction: f64,
    },
    /// A deterministic offset of `fraction × radius` (`fraction` in
    /// `[-1, 1]`), modelling systematic bias within specification.
    ConstantBias {
        /// Offset as a fraction of the interval radius, clamped to ±1.
        fraction: f64,
    },
}

impl NoiseModel {
    /// Draws a measurement offset in `[-radius, +radius]`.
    ///
    /// A non-positive `radius` always produces offset `0.0`.
    #[inline]
    pub fn sample_offset<R: Rng + ?Sized>(&self, radius: f64, rng: &mut R) -> f64 {
        if radius <= 0.0 {
            return 0.0;
        }
        match *self {
            NoiseModel::None => 0.0,
            NoiseModel::Uniform => rng.gen_range(-radius..=radius),
            NoiseModel::Triangular => {
                let a: f64 = rng.gen_range(-0.5..=0.5);
                let b: f64 = rng.gen_range(-0.5..=0.5);
                (a + b) * radius
            }
            NoiseModel::ClippedGaussian { sigma_fraction } => {
                let sigma = sigma_fraction.abs() * radius;
                let z = standard_normal(rng);
                (z * sigma).clamp(-radius, radius)
            }
            NoiseModel::ConstantBias { fraction } => fraction.clamp(-1.0, 1.0) * radius,
        }
    }
}

impl Default for NoiseModel {
    /// Returns [`NoiseModel::Uniform`], the paper's evaluation model.
    fn default() -> Self {
        NoiseModel::Uniform
    }
}

/// One standard-normal draw via the Box–Muller transform (the `rand_distr`
/// crate is intentionally avoided to keep the dependency set minimal).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(20140324) // DATE'14 started March 24, 2014
    }

    #[test]
    fn all_models_respect_the_radius_bound() {
        let mut rng = rng();
        let models = [
            NoiseModel::None,
            NoiseModel::Uniform,
            NoiseModel::Triangular,
            NoiseModel::ClippedGaussian {
                sigma_fraction: 0.9,
            },
            NoiseModel::ConstantBias { fraction: 0.7 },
        ];
        for model in models {
            for _ in 0..2000 {
                let offset = model.sample_offset(1.5, &mut rng);
                assert!(offset.abs() <= 1.5, "{model:?} produced {offset}");
            }
        }
    }

    #[test]
    fn zero_radius_is_silent() {
        let mut rng = rng();
        assert_eq!(NoiseModel::Uniform.sample_offset(0.0, &mut rng), 0.0);
        assert_eq!(NoiseModel::Uniform.sample_offset(-1.0, &mut rng), 0.0);
    }

    #[test]
    fn none_model_is_exact() {
        let mut rng = rng();
        for _ in 0..10 {
            assert_eq!(NoiseModel::None.sample_offset(3.0, &mut rng), 0.0);
        }
    }

    #[test]
    fn constant_bias_is_deterministic_and_clamped() {
        let mut rng = rng();
        let m = NoiseModel::ConstantBias { fraction: 0.5 };
        assert_eq!(m.sample_offset(2.0, &mut rng), 1.0);
        let clamped = NoiseModel::ConstantBias { fraction: 7.0 };
        assert_eq!(clamped.sample_offset(2.0, &mut rng), 2.0);
    }

    #[test]
    fn uniform_covers_both_signs() {
        let mut rng = rng();
        let mut pos = 0;
        let mut neg = 0;
        for _ in 0..500 {
            let x = NoiseModel::Uniform.sample_offset(1.0, &mut rng);
            if x > 0.0 {
                pos += 1;
            } else if x < 0.0 {
                neg += 1;
            }
        }
        assert!(pos > 100 && neg > 100, "pos = {pos}, neg = {neg}");
    }

    #[test]
    fn triangular_concentrates_near_zero() {
        let mut rng = rng();
        let mut inner = 0;
        let n = 4000;
        for _ in 0..n {
            let x = NoiseModel::Triangular.sample_offset(1.0, &mut rng);
            if x.abs() <= 0.5 {
                inner += 1;
            }
        }
        // Triangular puts 75% of mass in the inner half (uniform puts 50%).
        assert!(inner as f64 / n as f64 > 0.65, "inner fraction too small");
    }

    #[test]
    fn gaussian_clipping_keeps_extremes_in_range() {
        let mut rng = rng();
        let m = NoiseModel::ClippedGaussian {
            sigma_fraction: 5.0,
        };
        for _ in 0..1000 {
            let x = m.sample_offset(1.0, &mut rng);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn default_is_uniform() {
        assert_eq!(NoiseModel::default(), NoiseModel::Uniform);
    }
}
