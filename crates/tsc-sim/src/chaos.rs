//! Deterministic chaos injection for the controller-facing surfaces.
//!
//! A [`ChaosPlan`] is a schedule of faults perturbing the three
//! boundaries between a controller and the world:
//!
//! * **sensing** — per-detector dropout, stuck-at-last-value freezes,
//!   Gaussian count noise, and additive bias (generalizing the ad-hoc
//!   dropout/noise knobs of [`DetectorConfig`](crate::DetectorConfig)
//!   into scheduled, targetable faults);
//! * **actuation** — lost phase commands (the signal holds its current
//!   phase), stuck-phase windows (every command ignored), and forced
//!   all-red windows (nothing discharges);
//! * **communication** — per-edge message drop, delay-by-k decision
//!   steps, and value corruption on the partner-message channel
//!   (consumed by the controller-side channel model in the core crate;
//!   the simulator itself carries no messages).
//!
//! Every fault is a [`Fault`]: a kind, a [`Sel`] target and a
//! half-open [`Window`] of simulation seconds. Probabilistic kinds
//! decide with [`draw`], a splitmix64 hash of `(seed, fault index,
//! time, entity)` from [`tsc_obs::det`] — the same scheme as detector
//! degradation — so the plan consumes **no RNG state** and a run under
//! `seed + plan` is bit-for-bit reproducible. An empty plan
//! is free: every hook checks an empty list and leaves the simulation
//! byte-identical to a chaos-free build. This mirrors the `FaultPlan`
//! design of the training stack, except that chaos faults are windows
//! rather than consume-once events: the surface keeps misbehaving for
//! as long as the window lasts.

use tsc_obs::det::{self, Fnv64};

use crate::ids::{LinkId, NodeId};

/// Half-open window `[start, end)` of simulation seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First second the fault is active.
    pub start: u32,
    /// First second the fault is no longer active.
    pub end: u32,
}

impl Window {
    /// A window covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Self {
        Window { start, end }
    }

    /// A window covering the whole run.
    pub fn always() -> Self {
        Window {
            start: 0,
            end: u32::MAX,
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: u32) -> bool {
        self.start <= t && t < self.end
    }
}

/// Which entities a fault (or a load phase) targets: every one, or
/// one specific entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sel<T> {
    /// Every entity.
    All,
    /// One specific entity.
    One(T),
}

impl<T: Copy + PartialEq> Sel<T> {
    /// Whether `who` is targeted.
    #[inline]
    pub fn matches(&self, who: T) -> bool {
        self.one().is_none_or(|x| x == who)
    }

    /// The specific entity, if the selector names one.
    #[inline]
    pub fn one(&self) -> Option<T> {
        match *self {
            Sel::All => None,
            Sel::One(x) => Some(x),
        }
    }
}

/// Which links a sensing fault targets.
pub type LinkSel = Sel<LinkId>;

/// Which intersections an actuation fault targets.
pub type NodeSel = Sel<NodeId>;

/// Which receiving agents a communication fault targets (an "edge" of
/// the pairing graph is identified by its receiver: every agent reads
/// exactly one partner message per decision step).
pub type AgentSel = Sel<usize>;

/// A scheduled fault: what it does to which entities while its window
/// is open — sensing, actuation, comms and (in the serving crate)
/// infrastructure faults alike. Probabilistic kinds decide with [`draw`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault<T, K> {
    /// When the fault is active.
    pub window: Window,
    /// Which entities it hits.
    pub target: Sel<T>,
    /// What it does.
    pub kind: K,
}

impl<T: Copy + PartialEq, K> Fault<T, K> {
    /// A fault of `kind` on `target` during `window`.
    pub fn new(window: Window, target: Sel<T>, kind: K) -> Self {
        Fault {
            window,
            target,
            kind,
        }
    }

    /// Whether `who` is in the fault's scope at time `t` (window open
    /// and selector matching), whether or not a draw would fire.
    #[inline]
    pub fn in_scope(&self, t: u32, who: T) -> bool {
        self.window.contains(t) && self.target.matches(who)
    }
}

/// A scheduled detector fault.
pub type SensingFault = Fault<LinkId, SensingKind>;

/// A scheduled actuation fault.
pub type ActuationFault = Fault<NodeId, ActuationKind>;

/// A scheduled communication fault.
pub type CommsFault = Fault<usize, CommsKind>;

/// A detector fault mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensingKind {
    /// Each second inside the window, the detector reads all-zero with
    /// probability `p` (deterministic in `(time, link)`).
    Dropout {
        /// Per-second failure probability in `[0, 1]`.
        p: f64,
    },
    /// The reading freezes at its value from the window's first second.
    StuckAtLast,
    /// Counts are scaled by `1 + sigma · g` with `g` a deterministic
    /// standard Gaussian (clamped so counts stay non-negative).
    Noise {
        /// Gaussian amplitude.
        sigma: f64,
    },
    /// A constant miscalibration: `delta` vehicles are added to the
    /// count/halting readings (clamped at zero; negative `delta`
    /// under-counts, positive `delta` reports phantom vehicles).
    Bias {
        /// Additive count offset (vehicles).
        delta: f64,
    },
}

/// A signal-actuation fault mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActuationKind {
    /// Each phase command is dropped with probability `p` (the signal
    /// holds its current phase).
    CommandLoss {
        /// Per-command loss probability in `[0, 1]`.
        p: f64,
    },
    /// Every phase command is ignored for the window's duration.
    StuckPhase,
    /// Nothing discharges through the intersection (forced all-red),
    /// regardless of the displayed phase.
    AllRed,
}

/// A communication fault mode on the partner-message channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommsKind {
    /// Each delivery is lost with probability `p`; what the receiver
    /// sees instead is the channel's loss policy (zero-fill or
    /// hold-last).
    Drop {
        /// Per-delivery loss probability in `[0, 1]`.
        p: f64,
    },
    /// Deliveries arrive `steps` decision steps late (the receiver
    /// reads the message its partner emitted `steps` steps earlier;
    /// zeros before any message was sent).
    Delay {
        /// Delivery delay in decision steps.
        steps: u32,
    },
    /// Uniform value corruption of amplitude `amp`, clamped back into
    /// the message range `[0, 1]`.
    Corrupt {
        /// Corruption amplitude.
        amp: f64,
    },
}

/// A deterministic schedule of sensing/actuation/communication faults.
///
/// Built with the same chained-builder style as the training stack's
/// `FaultPlan`; installed into a simulation via
/// [`Simulation::with_chaos`](crate::Simulation::with_chaos) /
/// [`TscEnv::set_chaos`](crate::TscEnv::set_chaos) and into a serving
/// runtime's message channel by the serving crate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    sensing: Vec<SensingFault>,
    actuation: Vec<ActuationFault>,
    comms: Vec<CommsFault>,
}

impl ChaosPlan {
    /// An empty plan (injects nothing; simulation behavior is
    /// bit-identical to not installing a plan at all).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Detector dropout: targeted links read all-zero with probability
    /// `p` each second of `window`.
    pub fn sensor_dropout(mut self, window: Window, links: LinkSel, p: f64) -> Self {
        self.sensing
            .push(Fault::new(window, links, SensingKind::Dropout { p }));
        self
    }

    /// Stuck detector: targeted links freeze at their reading from the
    /// window's first second.
    pub fn sensor_stuck(mut self, window: Window, links: LinkSel) -> Self {
        self.sensing
            .push(Fault::new(window, links, SensingKind::StuckAtLast));
        self
    }

    /// Gaussian count noise of amplitude `sigma` on targeted links.
    pub fn sensor_noise(mut self, window: Window, links: LinkSel, sigma: f64) -> Self {
        self.sensing
            .push(Fault::new(window, links, SensingKind::Noise { sigma }));
        self
    }

    /// Constant additive count bias of `delta` vehicles on targeted
    /// links.
    pub fn sensor_bias(mut self, window: Window, links: LinkSel, delta: f64) -> Self {
        self.sensing
            .push(Fault::new(window, links, SensingKind::Bias { delta }));
        self
    }

    /// Command loss: each phase request at targeted intersections is
    /// dropped with probability `p` (the phase holds).
    pub fn command_loss(mut self, window: Window, nodes: NodeSel, p: f64) -> Self {
        self.actuation
            .push(Fault::new(window, nodes, ActuationKind::CommandLoss { p }));
        self
    }

    /// Stuck signal: every phase request at targeted intersections is
    /// ignored for the window's duration.
    pub fn stuck_phase(mut self, window: Window, nodes: NodeSel) -> Self {
        self.actuation
            .push(Fault::new(window, nodes, ActuationKind::StuckPhase));
        self
    }

    /// Forced all-red: nothing discharges through targeted
    /// intersections for the window's duration.
    pub fn all_red(mut self, window: Window, nodes: NodeSel) -> Self {
        self.actuation
            .push(Fault::new(window, nodes, ActuationKind::AllRed));
        self
    }

    /// Message drop: each partner-message delivery to targeted
    /// receivers is lost with probability `p`.
    pub fn message_drop(mut self, window: Window, receivers: AgentSel, p: f64) -> Self {
        self.comms
            .push(Fault::new(window, receivers, CommsKind::Drop { p }));
        self
    }

    /// Message delay: deliveries to targeted receivers arrive `steps`
    /// decision steps late.
    pub fn message_delay(mut self, window: Window, receivers: AgentSel, steps: u32) -> Self {
        self.comms
            .push(Fault::new(window, receivers, CommsKind::Delay { steps }));
        self
    }

    /// Message corruption of amplitude `amp` on deliveries to targeted
    /// receivers.
    pub fn message_corrupt(mut self, window: Window, receivers: AgentSel, amp: f64) -> Self {
        self.comms
            .push(Fault::new(window, receivers, CommsKind::Corrupt { amp }));
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.sensing.is_empty() && self.actuation.is_empty() && self.comms.is_empty()
    }

    /// Whether an all-red window blocks every discharge through `node`
    /// at `time`.
    pub fn all_red_at(&self, time: u32, node: NodeId) -> bool {
        self.actuation
            .iter()
            .any(|f| matches!(f.kind, ActuationKind::AllRed) && f.in_scope(time, node))
    }

    /// The scheduled sensing faults.
    pub fn sensing(&self) -> &[SensingFault] {
        &self.sensing
    }

    /// The scheduled actuation faults.
    pub fn actuation(&self) -> &[ActuationFault] {
        &self.actuation
    }

    /// The scheduled communication faults.
    pub fn comms(&self) -> &[CommsFault] {
        &self.comms
    }

    /// A stable FNV-1a fingerprint of the full fault schedule (windows,
    /// selectors, kinds, parameter bits). An empty plan hashes to a
    /// fixed value; combined with [`Scenario::fingerprint`]
    /// (crate::Scenario::fingerprint) it identifies a compiled world
    /// including its injected incidents.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        let window = |h: &mut Fnv64, w: &Window| {
            h.write_u64(u64::from(w.start));
            h.write_u64(u64::from(w.end));
        };
        h.write_usize(self.sensing.len());
        for f in &self.sensing {
            window(&mut h, &f.window);
            h.write_u64(f.target.one().map_or(u64::MAX, |x| x.index() as u64));
            match f.kind {
                SensingKind::Dropout { p } => {
                    h.write_u64(0);
                    h.write_f64(p);
                }
                SensingKind::StuckAtLast => h.write_u64(1),
                SensingKind::Noise { sigma } => {
                    h.write_u64(2);
                    h.write_f64(sigma);
                }
                SensingKind::Bias { delta } => {
                    h.write_u64(3);
                    h.write_f64(delta);
                }
            }
        }
        h.write_usize(self.actuation.len());
        for f in &self.actuation {
            window(&mut h, &f.window);
            h.write_u64(f.target.one().map_or(u64::MAX, |x| x.index() as u64));
            match f.kind {
                ActuationKind::CommandLoss { p } => {
                    h.write_u64(0);
                    h.write_f64(p);
                }
                ActuationKind::StuckPhase => h.write_u64(1),
                ActuationKind::AllRed => h.write_u64(2),
            }
        }
        h.write_usize(self.comms.len());
        for f in &self.comms {
            window(&mut h, &f.window);
            h.write_u64(f.target.one().map_or(u64::MAX, |a| a as u64));
            match f.kind {
                CommsKind::Drop { p } => {
                    h.write_u64(0);
                    h.write_f64(p);
                }
                CommsKind::Delay { steps } => {
                    h.write_u64(1);
                    h.write_u64(u64::from(steps));
                }
                CommsKind::Corrupt { amp } => {
                    h.write_u64(2);
                    h.write_f64(amp);
                }
            }
        }
        h.finish()
    }
}

/// The draw of fault `idx` of a plan seeded with `seed` at
/// `(time, entity)`: a deterministic `[0, 1)` sample from the fault's
/// own salted stream ([`det::salt`], [`det::uniform`]). Consumes no RNG
/// state.
#[inline]
pub fn draw(seed: u64, idx: usize, time: u32, entity: usize) -> f64 {
    det::uniform(det::salt(seed, idx), time, entity)
}

/// Deterministic per-`(time, entity)` standard Gaussian (Box–Muller
/// over two [`det::uniform`] streams).
pub fn chaos_gaussian(seed: u64, time: u32, entity: usize) -> f64 {
    let u1 = det::uniform(seed, time, entity).max(1e-12);
    let u2 = det::uniform(seed ^ 0xA5A5_A5A5_A5A5_A5A5, time, entity);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_half_open() {
        let w = Window::new(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(Window::always().contains(u32::MAX - 1));
    }

    #[test]
    fn builder_accumulates_and_empty_is_empty() {
        assert!(ChaosPlan::new().is_empty());
        let plan = ChaosPlan::new()
            .sensor_dropout(Window::always(), LinkSel::All, 0.5)
            .all_red(Window::new(0, 10), NodeSel::All)
            .message_drop(Window::always(), AgentSel::One(2), 1.0);
        assert!(!plan.is_empty());
        assert_eq!(plan.sensing().len(), 1);
        assert_eq!(plan.actuation().len(), 1);
        assert_eq!(plan.comms().len(), 1);
    }

    #[test]
    fn fault_scope_needs_open_window_and_matching_target() {
        let f = Fault::new(
            Window::new(5, 9),
            NodeSel::One(NodeId(2)),
            ActuationKind::AllRed,
        );
        assert!(f.in_scope(5, NodeId(2)));
        assert!(!f.in_scope(9, NodeId(2)), "window is half-open");
        assert!(!f.in_scope(6, NodeId(1)), "selector misses other nodes");
        assert_eq!(f.target.one(), Some(NodeId(2)));
        assert_eq!(AgentSel::All.one(), None);
        assert!(LinkSel::All.matches(LinkId(3)));
        assert!(!AgentSel::One(0).matches(7));
    }

    #[test]
    fn draws_are_deterministic_in_range_and_salted_per_fault() {
        for t in 0..200 {
            for e in 0..8 {
                let u = draw(42, 0, t, e);
                assert!((0.0..1.0).contains(&u));
                assert_eq!(u.to_bits(), det::uniform(det::salt(42, 0), t, e).to_bits());
            }
        }
        assert_ne!(draw(1, 0, 5, 0).to_bits(), draw(2, 0, 5, 0).to_bits());
        assert_ne!(draw(7, 0, 3, 1).to_bits(), draw(7, 1, 3, 1).to_bits());
    }

    #[test]
    fn chaos_gaussian_is_roughly_centered() {
        let n = 4000;
        let mean: f64 = (0..n).map(|t| chaos_gaussian(9, t, 0)).sum::<f64>() / f64::from(n);
        assert!(mean.abs() < 0.1, "mean = {mean}");
    }
}
