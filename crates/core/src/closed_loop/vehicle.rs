//! Longitudinal vehicle dynamics.
//!
//! The LandShark is modelled as a point mass with bounded
//! acceleration/braking and linear drag — the simplest dynamics that keep
//! speed near a setpoint with bounded wander, which is all the case study
//! needs from the vehicle (the fusion layer only ever sees the speed).

use rand::Rng;

/// Static vehicle parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VehicleParams {
    /// Maximum forward acceleration (mph/s).
    pub max_accel: f64,
    /// Maximum braking deceleration (mph/s, positive number).
    pub max_brake: f64,
    /// Linear drag coefficient (1/s).
    pub drag: f64,
    /// Peak magnitude of the terrain disturbance (mph/s).
    pub disturbance: f64,
}

impl Default for VehicleParams {
    /// LandShark-ish defaults: brisk acceleration, stronger braking, mild
    /// drag and terrain noise.
    fn default() -> Self {
        Self {
            max_accel: 3.0,
            max_brake: 6.0,
            drag: 0.01,
            disturbance: 0.2,
        }
    }
}

/// Longitudinal vehicle state: speed (mph) and travelled distance
/// (mile-equivalents, integrated from speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Vehicle {
    params: VehicleParams,
    speed: f64,
    position: f64,
}

impl Vehicle {
    /// Creates a vehicle already moving at `speed` mph.
    pub(crate) fn with_speed(params: VehicleParams, speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed >= 0.0,
            "speed must be a finite non-negative value"
        );
        Self {
            params,
            speed,
            position: 0.0,
        }
    }

    /// Current speed in mph.
    pub(crate) fn speed(&self) -> f64 {
        self.speed
    }

    /// Travelled distance in miles.
    pub(crate) fn position(&self) -> f64 {
        self.position
    }

    /// The parameters.
    pub(crate) fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Advances the dynamics by `dt` seconds under `accel_cmd` (mph/s,
    /// clamped to the actuator limits) plus a uniform terrain
    /// disturbance. Speed never goes negative.
    pub(crate) fn step<R: Rng + ?Sized>(&mut self, accel_cmd: f64, dt: f64, rng: &mut R) {
        let a = accel_cmd.clamp(-self.params.max_brake, self.params.max_accel);
        let d = if self.params.disturbance > 0.0 {
            rng.gen_range(-self.params.disturbance..=self.params.disturbance)
        } else {
            0.0
        };
        let dv = (a - self.params.drag * self.speed + d) * dt;
        self.speed = (self.speed + dv).max(0.0);
        self.position += self.speed * dt / 3600.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(8)
    }

    fn quiet_params() -> VehicleParams {
        VehicleParams {
            disturbance: 0.0,
            ..VehicleParams::default()
        }
    }

    #[test]
    fn accelerates_towards_command() {
        let mut rng = rng();
        let mut v = Vehicle::with_speed(quiet_params(), 0.0);
        for _ in 0..100 {
            v.step(3.0, 0.1, &mut rng);
        }
        assert!(
            v.speed() > 10.0,
            "speed {} after 10s of full throttle",
            v.speed()
        );
        assert!(v.position() > 0.0);
    }

    #[test]
    fn speed_never_negative() {
        let mut rng = rng();
        let mut v = Vehicle::with_speed(quiet_params(), 1.0);
        for _ in 0..100 {
            v.step(-100.0, 0.1, &mut rng);
        }
        assert_eq!(v.speed(), 0.0);
    }

    #[test]
    fn command_is_clamped_to_actuator_limits() {
        let mut rng = rng();
        let mut fast = Vehicle::with_speed(quiet_params(), 0.0);
        let mut clamped = Vehicle::with_speed(quiet_params(), 0.0);
        fast.step(1e9, 0.1, &mut rng);
        clamped.step(quiet_params().max_accel, 0.1, &mut rng);
        assert_eq!(fast.speed(), clamped.speed());
    }

    #[test]
    fn drag_decays_speed_without_input() {
        let mut rng = rng();
        let mut v = Vehicle::with_speed(quiet_params(), 20.0);
        let initial = v.speed();
        for _ in 0..50 {
            v.step(0.0, 0.1, &mut rng);
        }
        assert!(v.speed() < initial);
        assert!(v.speed() > 0.0);
    }

    #[test]
    fn disturbance_stays_bounded() {
        let mut rng = rng();
        let params = VehicleParams {
            disturbance: 0.4,
            ..quiet_params()
        };
        let mut v = Vehicle::with_speed(params, 10.0);
        for _ in 0..1000 {
            let before = v.speed();
            v.step(0.0, 0.1, &mut rng);
            // dv bounded by (drag*speed + disturbance) * dt.
            assert!((v.speed() - before).abs() <= (0.05 * before + 0.4) * 0.1 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_initial_speed_panics() {
        let _ = Vehicle::with_speed(VehicleParams::default(), -1.0);
    }
}
