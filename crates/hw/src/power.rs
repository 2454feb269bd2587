//! Power model for timer cores (§V-B, "LibUtimer precision and power
//! cost").
//!
//! The paper justifies dedicating a core to LibUtimer by measuring its
//! cost at ~1.2 W when the poll loop uses `UMWAIT`, versus several watts
//! for a raw busy-spin, with each additional timer core costing little.

/// How the timer core waits between deadline checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollMode {
    /// Raw `RDTSC` spin loop — lowest latency, highest power.
    BusySpin,
    /// `UMWAIT`-assisted polling: the core naps in C0.1/C0.2 between
    /// deadline horizons and wakes on the TSC deadline.
    Umwait,
}

/// Package power model for dedicated timer cores.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Watts for the first timer core when busy-spinning.
    pub busy_spin_first_core_w: f64,
    /// Watts for the first timer core under `UMWAIT` (paper: ~1.2 W).
    pub umwait_first_core_w: f64,
    /// Marginal watts for each additional timer core (paper: "minimal").
    pub additional_core_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            busy_spin_first_core_w: 4.8,
            umwait_first_core_w: 1.2,
            additional_core_w: 0.15,
        }
    }
}

impl PowerModel {
    /// Power draw of `cores` dedicated timer cores in the given mode.
    ///
    /// Zero cores draw zero (the hardware-offload future-work variant).
    pub fn timer_power_w(&self, cores: usize, mode: PollMode) -> f64 {
        if cores == 0 {
            return 0.0;
        }
        let first = match mode {
            PollMode::BusySpin => self.busy_spin_first_core_w,
            PollMode::Umwait => self.umwait_first_core_w,
        };
        first + (cores - 1) as f64 * self.additional_core_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor() {
        let p = PowerModel::default();
        assert!((p.timer_power_w(1, PollMode::Umwait) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn umwait_saves_power() {
        let p = PowerModel::default();
        assert!(p.timer_power_w(1, PollMode::Umwait) < p.timer_power_w(1, PollMode::BusySpin));
    }

    #[test]
    fn additional_cores_are_cheap() {
        let p = PowerModel::default();
        let one = p.timer_power_w(1, PollMode::Umwait);
        let four = p.timer_power_w(4, PollMode::Umwait);
        assert!(
            four - one < one,
            "3 extra cores must cost less than the first"
        );
    }

    #[test]
    fn zero_cores_zero_power() {
        let p = PowerModel::default();
        assert_eq!(p.timer_power_w(0, PollMode::BusySpin), 0.0);
    }
}
