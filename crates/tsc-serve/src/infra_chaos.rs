//! Deterministic **infrastructure** chaos for the fleet layer.
//!
//! [`tsc_sim::ChaosPlan`] perturbs the world a controller sees
//! (sensing, actuation, comms). An [`InfraChaosPlan`] perturbs the
//! serving infrastructure itself — the faults a fleet operator fears:
//!
//! * **tenant panics** — the tenant's policy step panics (exercising
//!   the `catch_unwind` crash isolation for real);
//! * **reload corruption** — a quarantined tenant's checkpoint reload
//!   attempt fails validation (as if the file rotted on disk);
//! * **latency spikes** — the tenant's policy path stalls for a fixed
//!   extra delay (driving deadline overruns and the circuit breaker);
//! * **reload storms** — operators hammering hot reload: a reload is
//!   staged every `k` steps and swapped in on the next. The staged
//!   snapshot is a second buffer, so the storm costs no degraded step.
//!
//! The determinism discipline is exactly the chaos engine's: every
//! fault is a [`tsc_sim::Fault`] active on a half-open [`Window`] of
//! **fleet decision steps** and draws its probabilistic decisions from
//! a splitmix64 hash of `(seed, fault index, step, tenant)` via
//! [`tsc_sim::chaos::draw`]. The plan consumes **no RNG
//! state**: an empty plan is bit-identical to no plan, and the same
//! `seed + plan` replays bit-for-bit (both pinned by tier-1 tests,
//! like `ChaosPlan`).

use std::time::Duration;

use tsc_obs::Json;
use tsc_sim::chaos::{draw, Fault, Sel};
use tsc_sim::Window;

/// Salt decorrelating the infra-chaos hash streams from the
/// road-fault streams of a `ChaosPlan` keyed by the same user seed.
const INFRA_SALT: u64 = 0x1a9f_0c3d_5b71_e842;

/// Which tenants a fault (or a load phase) targets.
pub type TenantSel = Sel<usize>;

/// An infrastructure fault mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InfraKind {
    /// Each step inside the window, the tenant's policy step panics
    /// with probability `p` (deterministic in `(step, tenant)`).
    Panic {
        /// Per-step panic probability in `[0, 1]`.
        p: f64,
    },
    /// Each checkpoint reload attempted inside the window fails as
    /// corrupt with probability `p` (deterministic in `(step,
    /// tenant)`), consuming the tenant's retry budget.
    ReloadCorrupt {
        /// Per-attempt corruption probability in `[0, 1]`.
        p: f64,
    },
    /// Each step inside the window, the tenant's policy path stalls
    /// an extra `extra_us` microseconds with probability `p`.
    LatencySpike {
        /// Injected extra latency (µs).
        extra_us: u64,
        /// Per-step spike probability in `[0, 1]`.
        p: f64,
    },
    /// A hot reload of the tenant's checkpoint is staged every
    /// `every` steps inside the window (committed on the following
    /// step). The live policy keeps serving at full quality meanwhile.
    ReloadStorm {
        /// Steps between forced reloads (≥ 1).
        every: u32,
    },
}

/// A scheduled infrastructure fault (window in fleet decision steps,
/// target a tenant selector).
pub type InfraFault = Fault<usize, InfraKind>;

/// A deterministic schedule of infrastructure faults for a fleet,
/// built in the same chained-builder style as
/// [`tsc_sim::ChaosPlan`]. Installed via
/// [`FleetRuntime::set_infra_chaos`](crate::FleetRuntime::set_infra_chaos).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InfraChaosPlan {
    faults: Vec<InfraFault>,
}

impl InfraChaosPlan {
    /// An empty plan (injects nothing; the fleet is bit-identical to
    /// one without a plan installed).
    pub fn new() -> Self {
        InfraChaosPlan::default()
    }

    /// Injected panics: targeted tenants' policy steps panic with
    /// probability `p` each step of `window`.
    pub fn tenant_panic(mut self, window: Window, tenants: TenantSel, p: f64) -> Self {
        self.faults
            .push(Fault::new(window, tenants, InfraKind::Panic { p }));
        self
    }

    /// Reload corruption: targeted tenants' checkpoint reload attempts
    /// fail with probability `p` during `window`.
    pub fn reload_corrupt(mut self, window: Window, tenants: TenantSel, p: f64) -> Self {
        self.faults
            .push(Fault::new(window, tenants, InfraKind::ReloadCorrupt { p }));
        self
    }

    /// Latency spikes: targeted tenants stall `extra_us` µs with
    /// probability `p` each step of `window`.
    pub fn latency_spike(
        mut self,
        window: Window,
        tenants: TenantSel,
        extra_us: u64,
        p: f64,
    ) -> Self {
        self.faults.push(Fault::new(
            window,
            tenants,
            InfraKind::LatencySpike { extra_us, p },
        ));
        self
    }

    /// Reload storm: a hot reload is forced on targeted tenants every
    /// `every` steps of `window`.
    pub fn reload_storm(mut self, window: Window, tenants: TenantSel, every: u32) -> Self {
        let kind = InfraKind::ReloadStorm {
            every: every.max(1),
        };
        self.faults.push(Fault::new(window, tenants, kind));
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[InfraFault] {
        &self.faults
    }

    /// Whether the tenant's policy step panics at `step` under `seed`.
    pub fn panics(&self, seed: u64, step: u64, tenant: usize) -> bool {
        self.fired(seed, step, tenant)
            .any(|k| matches!(k, InfraKind::Panic { .. }))
    }

    /// Whether a reload attempted at `step` by `tenant` is corrupted.
    pub fn corrupts_reload(&self, seed: u64, step: u64, tenant: usize) -> bool {
        self.fired(seed, step, tenant)
            .any(|k| matches!(k, InfraKind::ReloadCorrupt { .. }))
    }

    /// The injected latency for the tenant's step, if any spike fires
    /// (multiple firing spikes add up).
    pub fn spike(&self, seed: u64, step: u64, tenant: usize) -> Option<Duration> {
        let total_us: u64 = self
            .fired(seed, step, tenant)
            .map(|k| match k {
                InfraKind::LatencySpike { extra_us, .. } => extra_us,
                _ => 0,
            })
            .sum();
        (total_us > 0).then(|| Duration::from_micros(total_us))
    }

    /// Whether a reload storm forces a staging on this tenant at
    /// `step` (the cadence is anchored at each window's start).
    pub fn storm_due(&self, step: u64, tenant: usize) -> bool {
        let s = clamp_step(step);
        self.faults.iter().any(|f| match f.kind {
            InfraKind::ReloadStorm { every } => {
                f.in_scope(s, tenant) && (s - f.window.start).is_multiple_of(every)
            }
            _ => false,
        })
    }

    /// Which faults have `tenant` **in scope** at `step`: bit `i` is
    /// set when fault `i`'s window contains the step and its selector
    /// matches the tenant (whether or not its probabilistic draw
    /// fired). This is the flight-recorder frame's `chaos_mask` —
    /// deterministic, so it replays bit-for-bit. Fault indices past 31
    /// share nothing (a plan that large saturates the mask's top bit).
    pub fn active_mask(&self, step: u64, tenant: usize) -> u32 {
        let s = clamp_step(step);
        let mut mask = 0u32;
        for (idx, fault) in self.faults.iter().enumerate() {
            if fault.in_scope(s, tenant) {
                mask |= 1u32 << idx.min(31);
            }
        }
        mask
    }

    /// The plan as a JSON array of faults — the incident file's replay
    /// context. [`from_json`](Self::from_json) round-trips it exactly
    /// (probabilities are `f64`s rendered at full precision).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.faults
                .iter()
                .map(|f| {
                    let kind = match f.kind {
                        InfraKind::Panic { p } => {
                            Json::obj([("kind", Json::str("panic")), ("p", Json::num(p))])
                        }
                        InfraKind::ReloadCorrupt { p } => {
                            Json::obj([("kind", Json::str("reload_corrupt")), ("p", Json::num(p))])
                        }
                        InfraKind::LatencySpike { extra_us, p } => Json::obj([
                            ("kind", Json::str("latency_spike")),
                            ("extra_us", Json::num(extra_us as f64)),
                            ("p", Json::num(p)),
                        ]),
                        InfraKind::ReloadStorm { every } => Json::obj([
                            ("kind", Json::str("reload_storm")),
                            ("every", Json::num(f64::from(every))),
                        ]),
                    };
                    Json::obj([
                        ("window", window_to_json(f.window)),
                        ("tenants", tenant_sel_to_json(f.target)),
                        ("fault", kind),
                    ])
                })
                .collect(),
        )
    }

    /// Parses [`to_json`](Self::to_json) output. `None` on shape
    /// mismatch.
    pub fn from_json(j: &Json) -> Option<Self> {
        let Json::Arr(items) = j else { return None };
        let mut faults = Vec::with_capacity(items.len());
        for item in items {
            let window = window_from_json(item.get("window")?)?;
            let tenants = tenant_sel_from_json(item.get("tenants")?)?;
            let f = item.get("fault")?;
            let kind = match f.get_str("kind")? {
                "panic" => InfraKind::Panic { p: f.get_num("p")? },
                "reload_corrupt" => InfraKind::ReloadCorrupt { p: f.get_num("p")? },
                "latency_spike" => InfraKind::LatencySpike {
                    extra_us: f.get_int("extra_us")?,
                    p: f.get_num("p")?,
                },
                // The builder clamps the cadence to ≥ 1; 0 would
                // divide by zero in `storm_due`.
                "reload_storm" => InfraKind::ReloadStorm {
                    every: f.get_int("every").filter(|&e| e > 0)?,
                },
                _ => return None,
            };
            faults.push(Fault::new(window, tenants, kind));
        }
        Some(InfraChaosPlan { faults })
    }

    /// The kinds of the probabilistic faults that fire on `tenant` at
    /// `step`: in scope, with their draw under `p`.
    fn fired(&self, seed: u64, step: u64, tenant: usize) -> impl Iterator<Item = InfraKind> + '_ {
        let s = clamp_step(step);
        self.faults.iter().enumerate().filter_map(move |(idx, f)| {
            let p = match f.kind {
                InfraKind::Panic { p }
                | InfraKind::ReloadCorrupt { p }
                | InfraKind::LatencySpike { p, .. } => p,
                InfraKind::ReloadStorm { .. } => return None,
            };
            let fires = f.in_scope(s, tenant) && draw(seed ^ INFRA_SALT, idx, s, tenant) < p;
            fires.then_some(f.kind)
        })
    }
}

/// Fleet steps are `u64`; fault windows reuse the chaos engine's
/// `u32` [`Window`]. Steps beyond `u32::MAX` pin to the last window
/// tick (a fleet serving 4 × 10⁹ steps has long outlived any fault
/// schedule).
pub(crate) fn clamp_step(step: u64) -> u32 {
    u32::try_from(step).unwrap_or(u32::MAX)
}

/// [`Window`] as `{start, end}` (replay-context material, shared with
/// the load plan's serializer).
pub(crate) fn window_to_json(w: Window) -> Json {
    Json::obj([
        ("start", Json::num(f64::from(w.start))),
        ("end", Json::num(f64::from(w.end))),
    ])
}

/// Parses [`window_to_json`] output.
pub(crate) fn window_from_json(j: &Json) -> Option<Window> {
    Some(Window::new(j.get_int("start")?, j.get_int("end")?))
}

/// [`TenantSel`] as `"all"` or a tenant index.
pub(crate) fn tenant_sel_to_json(sel: TenantSel) -> Json {
    match sel {
        TenantSel::All => Json::str("all"),
        TenantSel::One(t) => Json::num(t as f64),
    }
}

/// Parses [`tenant_sel_to_json`] output.
pub(crate) fn tenant_sel_from_json(j: &Json) -> Option<TenantSel> {
    match j {
        Json::Str(s) if s == "all" => Some(TenantSel::All),
        n @ Json::Num(_) => Some(TenantSel::One(n.as_int()?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_and_empty_is_empty() {
        assert!(InfraChaosPlan::new().is_empty());
        let plan = InfraChaosPlan::new()
            .tenant_panic(Window::always(), TenantSel::One(1), 1.0)
            .reload_corrupt(Window::new(0, 10), TenantSel::All, 0.5)
            .latency_spike(Window::always(), TenantSel::All, 500, 0.3)
            .reload_storm(Window::new(10, 50), TenantSel::One(0), 7);
        assert!(!plan.is_empty());
        assert_eq!(plan.faults().len(), 4);
    }

    #[test]
    fn probability_one_always_fires_and_zero_never() {
        let always = InfraChaosPlan::new().tenant_panic(Window::always(), TenantSel::All, 1.0);
        let never = InfraChaosPlan::new().tenant_panic(Window::always(), TenantSel::All, 0.0);
        for step in 0..50 {
            assert!(always.panics(9, step, 0));
            assert!(!never.panics(9, step, 0));
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let plan = InfraChaosPlan::new()
            .tenant_panic(Window::always(), TenantSel::All, 0.5)
            .reload_corrupt(Window::always(), TenantSel::All, 0.5);
        let trace = |seed: u64| -> Vec<(bool, bool)> {
            (0..64)
                .map(|t| (plan.panics(seed, t, 1), plan.corrupts_reload(seed, t, 1)))
                .collect()
        };
        assert_eq!(trace(7), trace(7), "bit-reproducible");
        assert_ne!(trace(7), trace(8), "seed changes the stream");
        // The two fault categories draw from decorrelated streams.
        let t = trace(7);
        assert!(t.iter().any(|&(a, b)| a != b));
    }

    #[test]
    fn windows_gate_fault_activity() {
        let plan = InfraChaosPlan::new().tenant_panic(Window::new(10, 20), TenantSel::One(2), 1.0);
        assert!(!plan.panics(0, 9, 2));
        assert!(plan.panics(0, 10, 2));
        assert!(plan.panics(0, 19, 2));
        assert!(!plan.panics(0, 20, 2));
        assert!(!plan.panics(0, 15, 1), "selector misses other tenants");
    }

    #[test]
    fn json_round_trips_every_fault_kind() {
        let plan = InfraChaosPlan::new()
            .tenant_panic(Window::new(3, 9), TenantSel::One(1), 0.37)
            .reload_corrupt(Window::new(0, 10), TenantSel::All, 0.125)
            .latency_spike(Window::always(), TenantSel::All, 450, 0.2)
            .reload_storm(Window::new(10, 50), TenantSel::One(0), 7);
        let text = plan.to_json().compact();
        let back = InfraChaosPlan::from_json(&tsc_obs::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(
            InfraChaosPlan::from_json(&InfraChaosPlan::new().to_json()),
            Some(InfraChaosPlan::new())
        );
    }

    #[test]
    fn active_mask_tracks_window_and_selector_per_fault_index() {
        let plan = InfraChaosPlan::new()
            .tenant_panic(Window::new(0, 5), TenantSel::One(0), 0.0)
            .latency_spike(Window::new(3, 10), TenantSel::All, 100, 0.0);
        assert_eq!(plan.active_mask(1, 0), 0b01, "fault 0 only");
        assert_eq!(plan.active_mask(4, 0), 0b11, "both in scope");
        assert_eq!(plan.active_mask(4, 2), 0b10, "selector misses tenant 2");
        assert_eq!(plan.active_mask(20, 0), 0, "all windows closed");
        assert_eq!(
            InfraChaosPlan::new().active_mask(0, 0),
            0,
            "empty plan has no scope"
        );
    }

    #[test]
    fn spikes_accumulate_and_storms_follow_cadence() {
        let plan = InfraChaosPlan::new()
            .latency_spike(Window::always(), TenantSel::All, 300, 1.0)
            .latency_spike(Window::always(), TenantSel::All, 200, 1.0)
            .reload_storm(Window::new(4, 20), TenantSel::All, 5);
        assert_eq!(plan.spike(0, 3, 0), Some(Duration::from_micros(500)));
        assert!(plan.storm_due(4, 0));
        assert!(!plan.storm_due(5, 0));
        assert!(plan.storm_due(9, 0));
        assert!(!plan.storm_due(24, 0), "window closed");
        assert_eq!(
            InfraChaosPlan::new().spike(0, 0, 0),
            None,
            "empty plan injects nothing"
        );
    }
}
