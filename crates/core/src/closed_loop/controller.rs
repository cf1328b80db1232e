//! The low-level PI speed controller.

/// A proportional-integral speed controller with output clamping and
/// anti-windup (the integral term freezes while the output saturates).
///
/// # Example
///
/// ```
/// use arsf_core::closed_loop::controller::PiController;
///
/// let mut pi = PiController::new(1.2, 0.2, 3.0, 6.0);
/// // Below target: accelerate.
/// assert!(pi.update(10.0, 8.0, 0.1) > 0.0);
/// // Above target: brake.
/// assert!(pi.update(10.0, 12.0, 0.1) < 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiController {
    kp: f64,
    ki: f64,
    max_output: f64,
    min_output: f64,
    integral: f64,
}

impl PiController {
    /// Creates a controller with gains `kp`, `ki` and output limits
    /// `[-max_brake, max_accel]`.
    ///
    /// # Panics
    ///
    /// Panics if a gain or limit is negative or non-finite.
    pub fn new(kp: f64, ki: f64, max_accel: f64, max_brake: f64) -> Self {
        assert!(
            kp.is_finite() && ki.is_finite() && kp >= 0.0 && ki >= 0.0,
            "gains must be finite and non-negative"
        );
        assert!(
            max_accel.is_finite() && max_brake.is_finite() && max_accel >= 0.0 && max_brake >= 0.0,
            "limits must be finite and non-negative"
        );
        Self {
            kp,
            ki,
            max_output: max_accel,
            min_output: -max_brake,
            integral: 0.0,
        }
    }

    /// Computes the acceleration command (mph/s) for the current
    /// estimated speed, advancing the integral state by `dt` seconds.
    pub fn update(&mut self, target: f64, estimate: f64, dt: f64) -> f64 {
        let error = target - estimate;
        let unclamped = self.kp * error + self.ki * (self.integral + error * dt);
        let output = unclamped.clamp(self.min_output, self.max_output);
        // Anti-windup: only integrate while the actuator is not pinned.
        if (output - unclamped).abs() < f64::EPSILON {
            self.integral += error * dt;
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_response_signs() {
        let mut pi = PiController::new(1.0, 0.0, 5.0, 5.0);
        assert!(pi.update(10.0, 9.0, 0.1) > 0.0);
        assert!(pi.update(10.0, 11.0, 0.1) < 0.0);
        assert_eq!(pi.update(10.0, 10.0, 0.1), 0.0);
    }

    #[test]
    fn output_is_clamped() {
        let mut pi = PiController::new(100.0, 0.0, 3.0, 6.0);
        assert_eq!(pi.update(10.0, 0.0, 0.1), 3.0);
        assert_eq!(pi.update(0.0, 100.0, 0.1), -6.0);
    }

    #[test]
    fn integral_removes_steady_state_error() {
        let mut pi = PiController::new(0.5, 0.5, 5.0, 5.0);
        // Constant error of 1: the command must grow over time.
        let first = pi.update(10.0, 9.0, 0.1);
        let mut last = first;
        for _ in 0..20 {
            last = pi.update(10.0, 9.0, 0.1);
        }
        assert!(last > first);
    }

    #[test]
    fn anti_windup_freezes_integral_when_saturated() {
        let mut pi = PiController::new(0.0, 10.0, 1.0, 1.0);
        // Saturate hard for many steps.
        for _ in 0..100 {
            let out = pi.update(100.0, 0.0, 0.1);
            assert_eq!(out, 1.0);
        }
        // On error reversal the controller must recover immediately
        // instead of unwinding a huge integral.
        let out = pi.update(0.0, 100.0, 0.1);
        assert_eq!(out, -1.0);
    }

    #[test]
    #[should_panic(expected = "gains must be finite")]
    fn negative_gain_panics() {
        let _ = PiController::new(-1.0, 0.0, 1.0, 1.0);
    }
}
