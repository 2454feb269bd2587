//! Retry policy for the lost-preemption watchdog.
//!
//! Under fault injection (`lp_sim::fault`) a `SENDUIPI`, kernel-timer
//! expiry, or signal can silently vanish. The runtime arms a watchdog
//! deadline for every preemption it issues; when the deadline passes
//! with the victim still running the same task, the preemption is
//! declared lost and re-sent under the capped exponential backoff
//! defined here. After [`WatchdogConfig::degrade_after`] consecutive
//! losses the worker's mechanism is degraded from user interrupts to
//! the kernel signal path, and every
//! [`WatchdogConfig::probe_every`]-th degraded preemption probes the
//! UINTR path again so the worker recovers once the fabric heals (see
//! `docs/FAULTS.md` for the full state machine).

use lp_sim::SimDur;

/// Capped exponential backoff: attempt `n` waits `base * 2^n`, never
/// more than `cap`.
///
/// ```
/// use libpreemptible::retry::Backoff;
/// use lp_sim::SimDur;
/// let b = Backoff::new(SimDur::micros(5), SimDur::micros(40));
/// assert_eq!(b.delay(0), SimDur::micros(5));
/// assert_eq!(b.delay(2), SimDur::micros(20));
/// assert_eq!(b.delay(10), SimDur::micros(40)); // capped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: SimDur,
    cap: SimDur,
}

impl Backoff {
    /// A backoff starting at `base`, doubling per attempt, capped at
    /// `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap < base`.
    pub fn new(base: SimDur, cap: SimDur) -> Self {
        assert!(cap >= base, "backoff cap {cap} below base {base}");
        Backoff { base, cap }
    }

    /// Delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> SimDur {
        let mult = 1u64.checked_shl(attempt.min(63)).unwrap_or(u64::MAX);
        let ns = self.base.as_nanos().saturating_mul(mult);
        SimDur::nanos(ns).min(self.cap)
    }
}

/// Watchdog parameters for the self-healing preemption path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How long after issuing a preemption the runtime waits for it to
    /// land before declaring it lost. Must exceed the worst-case
    /// healthy delivery latency of the mechanism in use, or healthy
    /// deliveries race their own retries (the seq check makes the race
    /// harmless — the loser is a spurious handler run — but it wastes
    /// cycles).
    pub timeout: SimDur,
    /// Consecutive losses on the UINTR path before the worker degrades
    /// to signal delivery.
    pub degrade_after: u32,
    /// Consecutive losses on the UINTR path before the worker enters
    /// the brownout tier — still on the fast path, but flagged as
    /// pressured so admission control tightens. Must be at most
    /// `degrade_after`; the degrade verdict wins at its own threshold.
    pub brownout_after: u32,
    /// While degraded, every this-many-th preemption is sent through
    /// UINTR as a probe; a probe that lands recovers the worker.
    pub probe_every: u32,
    /// Retry schedule for re-sending a lost preemption.
    pub backoff: Backoff,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            timeout: SimDur::micros(50),
            degrade_after: 3,
            brownout_after: 2,
            probe_every: 8,
            backoff: Backoff::new(SimDur::micros(5), SimDur::micros(80)),
        }
    }
}

/// One observation fed into [`RetryMachine::step`].
///
/// Every input names the run sequence (`seq`) of the preemption it is
/// about; the machine uses it to match in-flight recovery probes, so a
/// stale observation (a late signal for a run that already ended) can
/// never flip state armed for a newer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryInput {
    /// The timer core is about to issue a fresh preemption (attempt 0)
    /// for run `seq`. The verdict picks the delivery path.
    Send {
        /// Run sequence the send targets.
        seq: u64,
    },
    /// The watchdog deadline for `seq` passed with the victim still on
    /// the same task: the send is lost. `can_degrade` is true only for
    /// the UINTR mechanism — the signal mechanisms have nothing slower
    /// to fall back to.
    Lost {
        /// Run sequence of the lost send.
        seq: u64,
        /// Whether a loss streak may degrade this worker to signals.
        can_degrade: bool,
    },
    /// A preemption landed on the victim while it was still running
    /// `seq`. `uintr` says which path carried it — only a UINTR
    /// arrival is delivery-path proof that the fast path works.
    Landed {
        /// Run sequence the arrival matched.
        seq: u64,
        /// True when the arrival came over the user-interrupt path.
        uintr: bool,
    },
    /// The run under `seq` ended some other way (natural finish, or a
    /// watchdog check that found the victim already moved on): any
    /// outstanding send is settled, the loss streak resets.
    Settled {
        /// Run sequence that ended.
        seq: u64,
    },
}

/// The typed verdict of one [`RetryMachine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOutput {
    /// Send over the UINTR fast path (healthy worker).
    Fast,
    /// Send over the UINTR path as a recovery probe: the machine is
    /// degraded and this send's own arrival, if it comes back over
    /// UINTR, recovers the worker.
    Probe,
    /// Send over the kernel signal path (degraded worker, non-probe
    /// turn).
    Signal,
    /// Re-send the lost preemption after backoff. `uintr` is the path
    /// verdict: true retries over UINTR with SN repair, false goes
    /// through the kernel signal path (degraded workers, failed
    /// probes, and the signal mechanisms).
    Retry {
        /// Whether the re-send should use the UINTR path.
        uintr: bool,
    },
    /// The loss streak crossed [`WatchdogConfig::degrade_after`]: the
    /// worker just degraded to signal delivery. The caller emits
    /// `mech_degraded` and re-sends through the signal path.
    Degrade {
        /// The streak length that triggered the degrade.
        losses: u32,
    },
    /// The loss streak crossed [`WatchdogConfig::brownout_after`] but
    /// not yet the degrade threshold: the worker entered the brownout
    /// tier. The caller emits `mech_brownout` and re-sends over the
    /// UINTR path with SN repair, exactly like `Retry { uintr: true }`
    /// — brownout changes admission pressure, not the delivery path.
    Brownout {
        /// The streak length that triggered the brownout.
        losses: u32,
    },
    /// A recovery probe's own arrival came back over UINTR on a
    /// degraded worker: the fast path healed. The caller emits
    /// `mech_recovered`.
    Recovered,
    /// State updated; nothing for the caller to do.
    Noted,
}

/// The mechanism-health tier of a worker, derived from the retry
/// machine. Ordered: `Healthy < Brownout < Degraded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// UINTR path, no concerning loss streak.
    Healthy,
    /// UINTR path, but the loss streak crossed the brownout threshold —
    /// admission control treats the worker as pressured.
    Brownout,
    /// Kernel signal path (degrade-to-signals).
    Degraded,
}

/// The per-worker lost-preemption retry/degrade/recover state machine.
///
/// This is the **single** place the `losses` / `degraded` /
/// `brownout` / `degraded_sends` / `probe_for` state moves: the runtime (and the
/// `lp-check` DPOR lifecycle model, which drives this exact type)
/// observes events and feeds them to [`step`](RetryMachine::step),
/// then acts on the returned [`RetryOutput`]. Raw field writes outside
/// this module are rejected by the `retry-transition` lint
/// (`docs/CHECKS.md`), and the fields are private so the compiler
/// agrees.
///
/// Scheduling concerns — watchdog deadlines, backoff delays, attempt
/// counters — stay with the caller; the machine holds only the
/// mechanism-health state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryMachine {
    degrade_after: u32,
    brownout_after: u32,
    probe_every: u32,
    /// Consecutive lost preemptions seen by the watchdog.
    losses: u32,
    /// `true` once the worker fell back from UINTR to signal delivery.
    degraded: bool,
    /// `true` while the worker sits in the brownout tier (loss streak
    /// at or past `brownout_after`, not yet degraded). Cleared whenever
    /// the streak resets, superseded by a degrade.
    brownout: bool,
    /// Preemptions sent while degraded (drives the probe cadence).
    degraded_sends: u64,
    /// Run sequence of the in-flight UINTR recovery probe, if any. A
    /// probe succeeds only when its own arrival comes back over UINTR —
    /// a signal retry or task finish advancing the sequence is not
    /// evidence the fast path healed.
    probe_for: Option<u64>,
}

impl RetryMachine {
    /// A healthy machine using `cfg`'s degrade threshold and probe
    /// cadence.
    pub fn new(cfg: &WatchdogConfig) -> Self {
        assert!(cfg.degrade_after >= 1, "degrade_after must be >= 1");
        assert!(cfg.brownout_after >= 1, "brownout_after must be >= 1");
        assert!(cfg.probe_every >= 1, "probe_every must be >= 1");
        // brownout_after >= degrade_after is allowed and simply means
        // "no brownout tier": the degrade verdict wins at its own
        // threshold, so the brownout check below can never pass first.
        RetryMachine {
            degrade_after: cfg.degrade_after,
            brownout_after: cfg.brownout_after,
            probe_every: cfg.probe_every,
            losses: 0,
            degraded: false,
            brownout: false,
            degraded_sends: 0,
            probe_for: None,
        }
    }

    /// Feeds one observation through the transition function and
    /// returns the typed verdict. This is the only mutator.
    pub fn step(&mut self, input: RetryInput) -> RetryOutput {
        match input {
            RetryInput::Send { seq } => {
                if !self.degraded {
                    return RetryOutput::Fast;
                }
                self.degraded_sends += 1;
                if self
                    .degraded_sends
                    .is_multiple_of(u64::from(self.probe_every))
                {
                    self.probe_for = Some(seq);
                    RetryOutput::Probe
                } else {
                    RetryOutput::Signal
                }
            }
            RetryInput::Lost { seq, can_degrade } => {
                self.losses += 1;
                let was_probe = self.probe_for == Some(seq);
                if was_probe {
                    self.probe_for = None;
                }
                if can_degrade && !self.degraded && self.losses >= self.degrade_after {
                    self.degraded = true;
                    self.brownout = false; // superseded by the degrade
                    self.degraded_sends = 0;
                    return RetryOutput::Degrade {
                        losses: self.losses,
                    };
                }
                if can_degrade
                    && !self.degraded
                    && !self.brownout
                    && !was_probe
                    && self.losses >= self.brownout_after
                {
                    self.brownout = true;
                    return RetryOutput::Brownout {
                        losses: self.losses,
                    };
                }
                RetryOutput::Retry {
                    uintr: can_degrade && !was_probe && !self.degraded,
                }
            }
            RetryInput::Landed { seq, uintr } => {
                self.losses = 0;
                self.brownout = false;
                if self.probe_for == Some(seq) {
                    self.probe_for = None;
                    if uintr && self.degraded {
                        // Delivery-path proof: the probe's own arrival
                        // came back over the user-interrupt path.
                        self.degraded = false;
                        self.degraded_sends = 0;
                        return RetryOutput::Recovered;
                    }
                }
                RetryOutput::Noted
            }
            RetryInput::Settled { seq } => {
                self.losses = 0;
                self.brownout = false;
                if self.probe_for == Some(seq) {
                    // The probe's run ended without a UINTR arrival:
                    // no verdict either way, drop it.
                    self.probe_for = None;
                }
                RetryOutput::Noted
            }
        }
    }

    /// Whether the worker is degraded to the kernel signal path.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Whether the worker sits in the brownout tier.
    pub fn is_brownout(&self) -> bool {
        self.brownout
    }

    /// The worker's mechanism-health tier, for admission pressure.
    pub fn tier(&self) -> Tier {
        if self.degraded {
            Tier::Degraded
        } else if self.brownout {
            Tier::Brownout
        } else {
            Tier::Healthy
        }
    }

    /// Run sequence of the in-flight recovery probe, if one is armed.
    pub fn probe_seq(&self) -> Option<u64> {
        self.probe_for
    }

    /// A totally ordered snapshot of the machine state, used by the
    /// `lp-check` DPOR explorer to fingerprint visited states.
    pub fn fingerprint(&self) -> (u32, bool, bool, u64, Option<u64>) {
        (
            self.losses,
            self.degraded,
            self.brownout,
            self.degraded_sends,
            self.probe_for,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_until_cap() {
        let b = Backoff::new(SimDur::micros(2), SimDur::micros(30));
        assert_eq!(b.delay(0), SimDur::micros(2));
        assert_eq!(b.delay(1), SimDur::micros(4));
        assert_eq!(b.delay(3), SimDur::micros(16));
        assert_eq!(b.delay(4), SimDur::micros(30));
        assert_eq!(b.delay(63), SimDur::micros(30));
        assert_eq!(b.delay(u32::MAX), SimDur::micros(30));
    }

    #[test]
    fn zero_base_stays_zero() {
        let b = Backoff::new(SimDur::ZERO, SimDur::micros(1));
        assert_eq!(b.delay(0), SimDur::ZERO);
        assert_eq!(b.delay(40), SimDur::ZERO);
    }

    #[test]
    #[should_panic(expected = "below base")]
    fn cap_below_base_rejected() {
        Backoff::new(SimDur::micros(10), SimDur::micros(5));
    }

    #[test]
    fn default_config_is_sane() {
        let wd = WatchdogConfig::default();
        assert!(wd.timeout > SimDur::ZERO);
        assert!(wd.degrade_after >= 1);
        assert!(wd.probe_every >= 1);
        assert!(wd.backoff.delay(0) <= wd.timeout);
        // The brownout tier sits strictly inside the ladder by default.
        assert!((1..wd.degrade_after).contains(&wd.brownout_after));
    }

    /// Backoff cap saturation: once an attempt's doubled delay crosses
    /// the cap, every later attempt (including shift-overflow ranges)
    /// pins exactly at the cap.
    #[test]
    fn backoff_cap_saturation_table() {
        let b = Backoff::new(SimDur::micros(5), SimDur::micros(80));
        let table: &[(u32, u64)] = &[
            (0, 5_000),
            (1, 10_000),
            (2, 20_000),
            (3, 40_000),
            (4, 80_000),  // exactly at the cap
            (5, 80_000),  // would be 160us, saturates
            (63, 80_000), // largest representable shift
            (64, 80_000), // shift overflow path
            (u32::MAX, 80_000),
        ];
        for &(attempt, want_ns) in table {
            assert_eq!(b.delay(attempt).as_nanos(), want_ns, "attempt {attempt}");
        }
        // A huge base must saturate arithmetic, not wrap.
        let huge = Backoff::new(SimDur::nanos(u64::MAX / 2), SimDur::nanos(u64::MAX));
        assert_eq!(huge.delay(10), SimDur::nanos(u64::MAX));
    }

    fn machine(degrade_after: u32, probe_every: u32) -> RetryMachine {
        RetryMachine::new(&WatchdogConfig {
            degrade_after,
            probe_every,
            ..WatchdogConfig::default()
        })
    }

    /// Degrade-threshold off-by-one: with `degrade_after = 3` the
    /// first two losses retry and exactly the third degrades — not the
    /// second, not the fourth.
    #[test]
    fn degrade_threshold_off_by_one_table() {
        // (degrade_after, losses fed, expect degraded at the end)
        let table: &[(u32, u32, bool)] = &[
            (1, 1, true),
            (2, 1, false),
            (2, 2, true),
            (3, 2, false),
            (3, 3, true),
            (3, 4, true), // once degraded, stays degraded
        ];
        for &(after, losses, want) in table {
            let mut m = machine(after, 8);
            let mut degraded_at = None;
            for i in 0..losses {
                let out = m.step(RetryInput::Lost {
                    seq: u64::from(i),
                    can_degrade: true,
                });
                if let RetryOutput::Degrade { losses: streak } = out {
                    degraded_at = Some((i + 1, streak));
                }
            }
            assert_eq!(
                m.is_degraded(),
                want,
                "degrade_after={after} losses={losses}"
            );
            if want {
                // The Degrade verdict fires exactly once, at the
                // threshold loss, reporting the streak length.
                assert_eq!(degraded_at, Some((after, after)), "degrade_after={after}");
            } else {
                assert_eq!(degraded_at, None);
            }
        }
    }

    /// Losses below the threshold retry over UINTR with repair; a
    /// degraded or probe-failed loss retries over the signal path.
    #[test]
    fn lost_picks_the_retry_path() {
        let mut m = machine(3, 8);
        assert_eq!(
            m.step(RetryInput::Lost {
                seq: 0,
                can_degrade: true
            }),
            RetryOutput::Retry { uintr: true }
        );
        // Signal mechanisms can never retry over UINTR.
        let mut sig = machine(3, 8);
        assert_eq!(
            sig.step(RetryInput::Lost {
                seq: 0,
                can_degrade: false
            }),
            RetryOutput::Retry { uintr: false }
        );
        assert!(!sig.is_degraded(), "signal mechanisms never degrade");
        // A lost probe falls back to signals even though the machine
        // is mid-recovery.
        let mut p = machine(1, 1);
        assert_eq!(
            p.step(RetryInput::Lost {
                seq: 0,
                can_degrade: true
            }),
            RetryOutput::Degrade { losses: 1 }
        );
        assert_eq!(p.step(RetryInput::Send { seq: 1 }), RetryOutput::Probe);
        assert_eq!(
            p.step(RetryInput::Lost {
                seq: 1,
                can_degrade: true
            }),
            RetryOutput::Retry { uintr: false }
        );
        assert_eq!(p.probe_seq(), None, "failed probe is cleared");
    }

    /// Counter reset on recovery: a probe landing over UINTR clears
    /// the loss streak, the degraded flag, and the degraded-send
    /// cadence; the next degrade needs a full fresh streak.
    #[test]
    fn counters_reset_on_recovery() {
        let mut m = machine(2, 2);
        for seq in 0..2 {
            m.step(RetryInput::Lost {
                seq,
                can_degrade: true,
            });
        }
        assert!(m.is_degraded());
        assert_eq!(m.losses, 2);
        // Degraded sends alternate signal, probe (probe_every = 2).
        assert_eq!(m.step(RetryInput::Send { seq: 10 }), RetryOutput::Signal);
        assert_eq!(m.step(RetryInput::Send { seq: 11 }), RetryOutput::Probe);
        assert_eq!(m.probe_seq(), Some(11));
        // The probe lands over UINTR: full recovery.
        assert_eq!(
            m.step(RetryInput::Landed {
                seq: 11,
                uintr: true
            }),
            RetryOutput::Recovered
        );
        assert_eq!(m.fingerprint(), (0, false, false, 0, None));
        assert_eq!(m.step(RetryInput::Send { seq: 12 }), RetryOutput::Fast);
        // One loss is below the threshold again — no instant re-degrade.
        assert_eq!(
            m.step(RetryInput::Lost {
                seq: 12,
                can_degrade: true
            }),
            RetryOutput::Retry { uintr: true }
        );
        assert!(!m.is_degraded());
    }

    /// A probe that lands over the *signal* path is no proof the fast
    /// path healed: the probe is dropped without recovery.
    #[test]
    fn signal_landing_is_not_recovery_proof() {
        let mut m = machine(1, 1);
        m.step(RetryInput::Lost {
            seq: 0,
            can_degrade: true,
        });
        assert!(m.is_degraded());
        assert_eq!(m.step(RetryInput::Send { seq: 1 }), RetryOutput::Probe);
        assert_eq!(
            m.step(RetryInput::Landed {
                seq: 1,
                uintr: false
            }),
            RetryOutput::Noted
        );
        assert!(m.is_degraded(), "signal landing must not recover");
        assert_eq!(m.probe_seq(), None, "but the probe is consumed");
        // Same for a natural finish settling the probe's run.
        assert_eq!(m.step(RetryInput::Send { seq: 2 }), RetryOutput::Probe);
        m.step(RetryInput::Settled { seq: 2 });
        assert!(m.is_degraded());
        assert_eq!(m.probe_seq(), None);
    }

    /// Stale observations (wrong seq) never touch an armed probe.
    #[test]
    fn stale_seq_leaves_the_probe_armed() {
        let mut m = machine(1, 1);
        m.step(RetryInput::Lost {
            seq: 0,
            can_degrade: true,
        });
        m.step(RetryInput::Send { seq: 5 });
        assert_eq!(m.probe_seq(), Some(5));
        m.step(RetryInput::Landed {
            seq: 4,
            uintr: true,
        });
        assert_eq!(m.probe_seq(), Some(5), "stale landing kept the probe");
        assert!(m.is_degraded());
        m.step(RetryInput::Settled { seq: 4 });
        assert_eq!(m.probe_seq(), Some(5), "stale settle kept the probe");
    }

    fn machine_with_brownout(brownout_after: u32, degrade_after: u32) -> RetryMachine {
        RetryMachine::new(&WatchdogConfig {
            brownout_after,
            degrade_after,
            ..WatchdogConfig::default()
        })
    }

    /// The brownout tier fires exactly once, strictly between the
    /// thresholds, and the degrade verdict wins at its own threshold.
    #[test]
    fn brownout_sits_between_healthy_and_degraded() {
        let mut m = machine_with_brownout(2, 4);
        assert_eq!(m.tier(), Tier::Healthy);
        assert_eq!(
            m.step(RetryInput::Lost {
                seq: 0,
                can_degrade: true
            }),
            RetryOutput::Retry { uintr: true }
        );
        assert_eq!(
            m.step(RetryInput::Lost {
                seq: 1,
                can_degrade: true
            }),
            RetryOutput::Brownout { losses: 2 }
        );
        assert_eq!(m.tier(), Tier::Brownout);
        assert!(m.is_brownout() && !m.is_degraded());
        // Brownout is edge-triggered: the next loss is a plain retry
        // (still over UINTR — brownout does not change the path).
        assert_eq!(
            m.step(RetryInput::Lost {
                seq: 2,
                can_degrade: true
            }),
            RetryOutput::Retry { uintr: true }
        );
        assert_eq!(
            m.step(RetryInput::Lost {
                seq: 3,
                can_degrade: true
            }),
            RetryOutput::Degrade { losses: 4 }
        );
        assert_eq!(m.tier(), Tier::Degraded);
        assert!(!m.is_brownout(), "degrade supersedes brownout");
    }

    /// Any streak reset (a landing or a settle) drops the worker out of
    /// brownout; signal mechanisms never brown out at all.
    #[test]
    fn brownout_clears_on_streak_reset() {
        let mut m = machine_with_brownout(1, 3);
        m.step(RetryInput::Lost {
            seq: 0,
            can_degrade: true,
        });
        assert_eq!(m.tier(), Tier::Brownout);
        m.step(RetryInput::Landed {
            seq: 0,
            uintr: true,
        });
        assert_eq!(m.tier(), Tier::Healthy);
        assert_eq!(m.fingerprint(), (0, false, false, 0, None));

        m.step(RetryInput::Lost {
            seq: 1,
            can_degrade: true,
        });
        assert_eq!(m.tier(), Tier::Brownout);
        m.step(RetryInput::Settled { seq: 1 });
        assert_eq!(m.tier(), Tier::Healthy);

        // can_degrade = false (signal mechanisms): no ladder at all.
        let mut sig = machine_with_brownout(1, 3);
        for seq in 0..8 {
            assert_eq!(
                sig.step(RetryInput::Lost {
                    seq,
                    can_degrade: false
                }),
                RetryOutput::Retry { uintr: false }
            );
        }
        assert_eq!(sig.tier(), Tier::Healthy);
    }

    /// Tier ordering backs the monotonicity proptests: the enum order
    /// is the severity order.
    #[test]
    fn tier_order_is_severity_order() {
        assert!(Tier::Healthy < Tier::Brownout);
        assert!(Tier::Brownout < Tier::Degraded);
    }

    /// The probe cadence counts only degraded sends: every
    /// `probe_every`-th send while degraded probes, the rest signal.
    #[test]
    fn probe_cadence_table() {
        let mut m = machine(1, 3);
        m.step(RetryInput::Lost {
            seq: 0,
            can_degrade: true,
        });
        let mut outs = Vec::new();
        for seq in 1..=6 {
            outs.push(m.step(RetryInput::Send { seq }));
            // Each probe misses (no UINTR landing) so degradation holds.
            m.step(RetryInput::Settled { seq });
        }
        use RetryOutput::{Probe, Signal};
        assert_eq!(outs, vec![Signal, Signal, Probe, Signal, Signal, Probe]);
    }
}
