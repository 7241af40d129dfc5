//! Per-tenant supervision: a four-state health machine with a
//! windowed circuit breaker and deterministic exponential backoff.
//!
//! Every tenant of a [`FleetRuntime`](crate::FleetRuntime) is watched
//! by one [`Supervisor`]. The machine has four states:
//!
//! * **Healthy** — the policy serves; step outcomes feed the breaker
//!   window.
//! * **Degraded** — the breaker is open (windowed soft-fault rate
//!   crossed the threshold): the warm-standby MaxPressure controller
//!   serves while the tenant waits out a backoff, then re-tries the
//!   policy on probation.
//! * **Quarantined** — the tenant panicked (or kept failing while
//!   recovering): its runtime is untrusted, the standby serves, and
//!   the fleet periodically reloads the last good checkpoint under a
//!   bounded retry budget. With the budget exhausted the tenant stays
//!   quarantined — it never hot-loops on a permanently-corrupt
//!   checkpoint.
//! * **Recovering** — the policy serves again on probation; a clean
//!   streak of [`SupervisorConfig::probation_steps`] closes the
//!   breaker, any fault re-opens it (or re-quarantines on panic).
//!
//! Supervision composes with SLA-aware admission
//! ([`crate::Admission`]) by outranking it: the supervisor's recovery
//! schedule runs regardless of the tenant's brownout level, while a
//! browned-out step — where the policy never ran — neither feeds the
//! breaker window nor consumes a Degraded tenant's retry trial (a
//! trial begun on a step the policy cannot serve would be an
//! automatic, meaningless fault).
//!
//! All transitions go through one **pure** function,
//! [`Supervisor::transition`], so the whole `(state, event)` matrix is
//! exhaustively unit-testable. All timing is expressed in ticks of the
//! fleet's pluggable clock ([`FleetClock`](crate::FleetClock)); with
//! the default step-counting clock the machine has **zero wall-clock
//! dependence**. Backoff jitter is a splitmix64 hash of
//! `(tenant salt, attempt)` — bit-reproducible, no RNG state consumed,
//! the same discipline as [`tsc_sim::chaos`].

/// Supervision knobs shared by every tenant of a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Breaker window length in policy-served steps.
    pub window: usize,
    /// Open the breaker when the windowed soft-fault rate reaches this
    /// threshold (errors + deadline overruns over window steps).
    pub trip_fault_rate: f64,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Base backoff in clock ticks; attempt `k` waits
    /// `min(base << k, max) + jitter` with `jitter < base`.
    pub backoff_base: u64,
    /// Backoff cap in clock ticks (pre-jitter).
    pub backoff_max: u64,
    /// Checkpoint reloads a quarantined tenant may attempt before it
    /// is left quarantined for good.
    pub retry_budget: u32,
    /// Clean policy steps required to leave Recovering for Healthy.
    pub probation_steps: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            window: 20,
            trip_fault_rate: 0.5,
            min_samples: 5,
            backoff_base: 4,
            backoff_max: 64,
            retry_budget: 3,
            probation_steps: 5,
        }
    }
}

impl SupervisorConfig {
    /// The config as a JSON object (incident replay context).
    pub fn to_json(&self) -> tsc_obs::Json {
        use tsc_obs::Json;
        Json::obj([
            ("window", Json::num(self.window as f64)),
            ("trip_fault_rate", Json::num(self.trip_fault_rate)),
            ("min_samples", Json::num(self.min_samples as f64)),
            ("backoff_base", Json::num(self.backoff_base as f64)),
            ("backoff_max", Json::num(self.backoff_max as f64)),
            ("retry_budget", Json::num(f64::from(self.retry_budget))),
            (
                "probation_steps",
                Json::num(f64::from(self.probation_steps)),
            ),
        ])
    }

    /// Parses [`to_json`](Self::to_json) output.
    pub fn from_json(j: &tsc_obs::Json) -> Option<SupervisorConfig> {
        Some(SupervisorConfig {
            window: j.get_int("window")?,
            trip_fault_rate: j.get_num("trip_fault_rate")?,
            min_samples: j.get_int("min_samples")?,
            backoff_base: j.get_int("backoff_base")?,
            backoff_max: j.get_int("backoff_max")?,
            retry_budget: j.get_int("retry_budget")?,
            probation_steps: j.get_int("probation_steps")?,
        })
    }
}

/// Health state of one supervised tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Policy serving, breaker closed.
    Healthy,
    /// Breaker open: standby serving, waiting out backoff.
    Degraded,
    /// Crashed or unrecoverable: standby serving, reload scheduled
    /// (until the retry budget runs out).
    Quarantined,
    /// Policy serving on probation after a trial or reload.
    Recovering,
}

impl TenantState {
    /// Number of states (telemetry array size).
    pub const COUNT: usize = 4;
    /// Every state, in [`index`](Self::index) order.
    pub const ALL: [TenantState; TenantState::COUNT] = [
        TenantState::Healthy,
        TenantState::Degraded,
        TenantState::Quarantined,
        TenantState::Recovering,
    ];

    /// Stable dense index.
    pub fn index(self) -> usize {
        match self {
            TenantState::Healthy => 0,
            TenantState::Degraded => 1,
            TenantState::Quarantined => 2,
            TenantState::Recovering => 3,
        }
    }

    /// Whether the policy answers in this state (otherwise the warm
    /// standby does).
    pub fn serves_policy(self) -> bool {
        matches!(self, TenantState::Healthy | TenantState::Recovering)
    }
}

/// Everything that can happen to a supervised tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantEvent {
    /// A policy step completed cleanly.
    StepOk,
    /// A policy step soft-faulted: typed serve error or deadline
    /// overrun (counted by the breaker, served by the fallback ladder).
    SoftFault,
    /// The tenant's step panicked — its in-memory state is untrusted.
    Panic,
    /// The windowed soft-fault rate crossed the trip threshold.
    BreakerTripped,
    /// The backoff expired: a degraded tenant may re-try the policy.
    BackoffElapsed,
    /// A checkpoint reload validated and swapped in.
    ReloadOk,
    /// A checkpoint reload failed (corrupt file, fingerprint or layout
    /// mismatch, injected corruption).
    ReloadFailed,
    /// The probation streak completed cleanly.
    ProbationPassed,
}

impl TenantEvent {
    /// Number of events (for exhaustive transition tests).
    pub const COUNT: usize = 8;
    /// Every event.
    pub const ALL: [TenantEvent; TenantEvent::COUNT] = [
        TenantEvent::StepOk,
        TenantEvent::SoftFault,
        TenantEvent::Panic,
        TenantEvent::BreakerTripped,
        TenantEvent::BackoffElapsed,
        TenantEvent::ReloadOk,
        TenantEvent::ReloadFailed,
        TenantEvent::ProbationPassed,
    ];
}

/// One tenant's supervisor: the state machine plus its breaker window
/// and backoff timers. Purely tick-driven — no wall clock anywhere.
#[derive(Debug, Clone)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    /// Jitter salt, derived from `(fleet seed, tenant index)`.
    salt: u64,
    state: TenantState,
    /// Breaker ring buffer over recent policy steps (`true` = fault).
    window: Vec<bool>,
    window_next: usize,
    window_len: usize,
    /// Consecutive failed recovery attempts (backoff exponent).
    attempt: u32,
    reloads_used: u32,
    /// Clock tick at which the current backoff expires.
    wait_until: Option<u64>,
    probation_left: u32,
}

impl Supervisor {
    /// A healthy supervisor for one tenant. `salt` decorrelates this
    /// tenant's backoff jitter from every other tenant's.
    pub fn new(cfg: SupervisorConfig, salt: u64) -> Self {
        Supervisor {
            window: vec![false; cfg.window.max(1)],
            cfg,
            salt,
            state: TenantState::Healthy,
            window_next: 0,
            window_len: 0,
            attempt: 0,
            reloads_used: 0,
            wait_until: None,
            probation_left: 0,
        }
    }

    /// The pure transition table — the single source of truth for the
    /// state machine. Events that make no sense in a state leave it
    /// unchanged (e.g. `ReloadOk` while Healthy).
    pub fn transition(state: TenantState, event: TenantEvent) -> TenantState {
        use TenantEvent::*;
        use TenantState::*;
        match (state, event) {
            // A panic always quarantines a tenant that is running its
            // policy (or waiting to); a quarantined tenant's policy
            // never runs, so a panic there cannot occur — identity.
            (Healthy | Degraded | Recovering, Panic) => Quarantined,
            (Healthy | Recovering, BreakerTripped) => Degraded,
            (Degraded, BackoffElapsed) => Recovering,
            (Quarantined, ReloadOk) => Recovering,
            (Recovering, SoftFault) => Degraded,
            (Recovering, ProbationPassed) => Healthy,
            _ => state,
        }
    }

    /// Current state.
    pub fn state(&self) -> TenantState {
        self.state
    }

    /// Failed recovery attempts so far (the backoff exponent).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Checkpoint reloads consumed from the retry budget.
    pub fn reloads_used(&self) -> u32 {
        self.reloads_used
    }

    /// Whether the reload budget is spent — a quarantined tenant with
    /// an exhausted budget is never retried again.
    pub fn exhausted(&self) -> bool {
        self.reloads_used >= self.cfg.retry_budget
    }

    /// Deterministic backoff for recovery attempt `attempt`:
    /// `min(base << attempt, max)` plus a hash jitter below `base`.
    /// Bit-reproducible for a given `(salt, attempt)`.
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        let base = self.cfg.backoff_base.max(1);
        let exp = base
            .saturating_shl(attempt.min(32))
            .min(self.cfg.backoff_max.max(base));
        let jitter = tsc_obs::det::splitmix64(self.salt ^ (u64::from(attempt) << 17)) % base;
        exp + jitter
    }

    fn arm_backoff(&mut self, now: u64) {
        self.wait_until = Some(now + self.backoff_ticks(self.attempt));
        self.attempt += 1;
    }

    /// Whether a waiting tenant (Degraded or Quarantined) is due for
    /// its next recovery attempt at tick `now`. Quarantined tenants
    /// with an exhausted budget are never due.
    pub fn retry_due(&self, now: u64) -> bool {
        match self.state {
            TenantState::Degraded => matches!(self.wait_until, Some(t) if now >= t),
            TenantState::Quarantined => {
                !self.exhausted() && matches!(self.wait_until, Some(t) if now >= t)
            }
            _ => false,
        }
    }

    fn window_fault_rate(&self) -> Option<f64> {
        if self.window_len < self.cfg.min_samples.max(1) {
            return None;
        }
        let faults = self.window[..self.window_len]
            .iter()
            .filter(|&&f| f)
            .count();
        Some(faults as f64 / self.window_len as f64)
    }

    fn reset_window(&mut self) {
        self.window_len = 0;
        self.window_next = 0;
    }

    /// Records the outcome of a policy-served step (`fault` = typed
    /// error or deadline overrun) and runs the breaker. Returns the
    /// transition applied, if any. Only meaningful in policy-serving
    /// states; a stray call elsewhere is ignored.
    pub fn record_step(&mut self, fault: bool, now: u64) -> Option<TenantState> {
        if !self.state.serves_policy() {
            return None;
        }
        let before = self.state;
        self.window[self.window_next] = fault;
        self.window_next = (self.window_next + 1) % self.window.len();
        self.window_len = (self.window_len + 1).min(self.window.len());
        self.state = Self::transition(
            self.state,
            if fault {
                TenantEvent::SoftFault
            } else {
                TenantEvent::StepOk
            },
        );
        match self.state {
            TenantState::Degraded => {
                // Failed probation: re-open with a longer backoff.
                self.reset_window();
                self.arm_backoff(now);
            }
            TenantState::Recovering => {
                if !fault {
                    self.probation_left = self.probation_left.saturating_sub(1);
                    if self.probation_left == 0 {
                        self.state = Self::transition(self.state, TenantEvent::ProbationPassed);
                        self.attempt = 0;
                        self.wait_until = None;
                        self.reset_window();
                    }
                }
            }
            TenantState::Healthy => {
                if let Some(rate) = self.window_fault_rate() {
                    if rate >= self.cfg.trip_fault_rate {
                        self.state = Self::transition(self.state, TenantEvent::BreakerTripped);
                        self.reset_window();
                        self.arm_backoff(now);
                    }
                }
            }
            TenantState::Quarantined => unreachable!("no step outcome quarantines"),
        }
        (self.state != before).then_some(self.state)
    }

    /// Records a panic of the tenant's step: unconditional quarantine
    /// (from any policy-serving state) with backoff armed for the
    /// first reload attempt.
    pub fn record_panic(&mut self, now: u64) -> TenantState {
        self.state = Self::transition(self.state, TenantEvent::Panic);
        self.reset_window();
        self.probation_left = 0;
        self.arm_backoff(now);
        self.state
    }

    /// A degraded tenant's backoff expired: move to probation (the
    /// caller serves the policy this very step).
    pub fn begin_trial(&mut self) -> TenantState {
        debug_assert_eq!(self.state, TenantState::Degraded);
        self.state = Self::transition(self.state, TenantEvent::BackoffElapsed);
        self.probation_left = self.cfg.probation_steps.max(1);
        self.wait_until = None;
        self.reset_window();
        self.state
    }

    /// Accounts one checkpoint reload attempt of a quarantined tenant
    /// and applies its outcome. On failure the next attempt is armed
    /// with a longer backoff — unless the budget is now exhausted, in
    /// which case the tenant stays quarantined for good.
    pub fn reload_result(&mut self, ok: bool, now: u64) -> TenantState {
        debug_assert_eq!(self.state, TenantState::Quarantined);
        self.reloads_used += 1;
        if ok {
            self.state = Self::transition(self.state, TenantEvent::ReloadOk);
            self.probation_left = self.cfg.probation_steps.max(1);
            self.wait_until = None;
            self.reset_window();
        } else {
            self.state = Self::transition(self.state, TenantEvent::ReloadFailed);
            if self.exhausted() {
                self.wait_until = None;
            } else {
                self.arm_backoff(now);
            }
        }
        self.state
    }
}

/// `u64::checked_shl` that saturates instead of wrapping (shift counts
/// ≥ 64 or overflowing results pin to `u64::MAX`).
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if rhs >= 64 {
            return u64::MAX;
        }
        let shifted = self << rhs;
        if shifted >> rhs == self {
            shifted
        } else {
            u64::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup(cfg: SupervisorConfig) -> Supervisor {
        Supervisor::new(cfg, 0xF1EE7)
    }

    #[test]
    fn breaker_trips_on_windowed_fault_rate() {
        let mut s = sup(SupervisorConfig {
            window: 4,
            min_samples: 4,
            trip_fault_rate: 0.5,
            ..Default::default()
        });
        assert_eq!(s.record_step(true, 0), None, "below min samples");
        assert_eq!(s.record_step(false, 1), None);
        assert_eq!(s.record_step(true, 2), None);
        // 2 faults in the first 4 samples hits the 0.5 threshold.
        assert_eq!(s.record_step(false, 3), Some(TenantState::Degraded));
        assert!(!s.retry_due(3));
        let due_at = 3 + s.backoff_ticks(0);
        assert!(s.retry_due(due_at));
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let s = sup(SupervisorConfig {
            backoff_base: 4,
            backoff_max: 32,
            ..Default::default()
        });
        for attempt in 0..10 {
            let a = s.backoff_ticks(attempt);
            let b = s.backoff_ticks(attempt);
            assert_eq!(a, b, "bit-reproducible");
            let exp = (4u64 << attempt.min(32)).min(32);
            assert!(a >= exp && a < exp + 4, "jitter below base: {a} vs {exp}");
        }
        // Distinct salts decorrelate jitter streams.
        let other = Supervisor::new(SupervisorConfig::default(), 0xBEEF);
        assert_ne!(
            (0..8).map(|k| s.backoff_ticks(k)).collect::<Vec<_>>(),
            (0..8).map(|k| other.backoff_ticks(k)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn probation_closes_the_breaker_after_a_clean_streak() {
        let mut s = sup(SupervisorConfig {
            window: 2,
            min_samples: 2,
            trip_fault_rate: 0.5,
            probation_steps: 3,
            ..Default::default()
        });
        s.record_step(true, 0);
        s.record_step(true, 0);
        assert_eq!(s.state(), TenantState::Degraded);
        let now = s.backoff_ticks(0);
        assert!(s.retry_due(now));
        assert_eq!(s.begin_trial(), TenantState::Recovering);
        assert_eq!(s.record_step(false, now + 1), None);
        assert_eq!(s.record_step(false, now + 2), None);
        assert_eq!(s.record_step(false, now + 3), Some(TenantState::Healthy));
        assert_eq!(s.attempt(), 0, "full recovery resets the exponent");
    }

    #[test]
    fn faulty_probation_reopens_with_longer_backoff() {
        let mut s = sup(SupervisorConfig {
            window: 2,
            min_samples: 2,
            trip_fault_rate: 0.5,
            backoff_base: 4,
            backoff_max: 1024,
            ..Default::default()
        });
        s.record_step(true, 0);
        s.record_step(true, 0);
        assert_eq!(s.state(), TenantState::Degraded);
        let first = s.backoff_ticks(0);
        s.begin_trial();
        assert_eq!(s.record_step(true, first), Some(TenantState::Degraded));
        assert!(
            s.backoff_ticks(1) > first,
            "second attempt backs off longer"
        );
        assert!(!s.retry_due(first + 1));
    }

    #[test]
    fn panic_quarantines_and_reload_budget_bounds_retries() {
        let mut s = sup(SupervisorConfig {
            retry_budget: 2,
            backoff_base: 2,
            backoff_max: 8,
            ..Default::default()
        });
        assert_eq!(s.record_panic(0), TenantState::Quarantined);
        let mut now = 0;
        for used in 1..=2u32 {
            while !s.retry_due(now) {
                now += 1;
            }
            assert_eq!(s.reload_result(false, now), TenantState::Quarantined);
            assert_eq!(s.reloads_used(), used);
        }
        assert!(s.exhausted());
        // Never due again: no hot-looping on a dead checkpoint.
        for t in now..now + 10_000 {
            assert!(!s.retry_due(t));
        }
    }

    #[test]
    fn reload_ok_moves_to_probation() {
        let mut s = sup(SupervisorConfig {
            backoff_base: 1,
            probation_steps: 1,
            ..Default::default()
        });
        s.record_panic(0);
        let mut now = 0;
        while !s.retry_due(now) {
            now += 1;
        }
        assert_eq!(s.reload_result(true, now), TenantState::Recovering);
        assert_eq!(s.record_step(false, now + 1), Some(TenantState::Healthy));
    }

    #[test]
    fn saturating_shl_pins_at_max() {
        assert_eq!(1u64.saturating_shl(63), 1 << 63);
        assert_eq!(2u64.saturating_shl(63), u64::MAX);
        assert_eq!(1u64.saturating_shl(64), u64::MAX);
    }
}
