//! The repository benchmark.
//!
//! Four closed-loop workloads, each stressing a different layer of the
//! stack, run one at a time from the `perfbench` binary:
//!
//! | workload        | operation (one closed-loop call)            | dominant layer          |
//! |-----------------|---------------------------------------------|-------------------------|
//! | `train-grid6`   | one PPO round (`PairUpLight::train`, 1 ep.) | `ppo.update` (autograd) |
//! | `rollout-grid6` | `collect_rollouts`, K = 2 scoped threads    | per-decision inference  |
//! | `city-3025`     | one simulated hour of a 3025-agent city     | `tsc-sim`               |
//! | `fleet-surge`   | a 64-step cycle of `step_with_load` calls   | `tsc-serve`             |
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]);
//! a traced run reports the per-layer metrics ([`PER_LAYER`]) from
//! spans the benchmark wraps around its calls into each layer, plus the
//! spans the program already emits inside them.

pub mod host;
pub mod stats;
pub mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

pub use workloads::{run_workload, Workload};

/// End-to-end metrics: `(name, unit, better)`. Every untraced run
/// reports all of them; see `README.md` for what each means per
/// workload.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_ms", "ms", "lower"),
    ("throughput", "1/s", "higher"),
];

/// Per-layer metrics: `(name, unit, better)`. Every traced run reports
/// all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str, &str); 37] = [
    ("sim.observe_all_s", "s", "lower"),
    ("sim.observe_all_calls", "count", "lower"),
    ("sim.observe_all_share", "share", "lower"),
    ("sim.step_s", "s", "lower"),
    ("sim.env_step_s", "s", "lower"),
    ("sim.ev.advance_s", "s", "lower"),
    ("sim.ev.discharge_s", "s", "lower"),
    ("sim.ev.demand_s", "s", "lower"),
    ("sim.ev.backlog_s", "s", "lower"),
    ("baselines.max_pressure_s", "s", "lower"),
    ("scenario.compile_s", "s", "lower"),
    ("core.infer_s", "s", "lower"),
    ("core.infer_calls", "count", "lower"),
    ("core.infer_us_per_decision", "us", "lower"),
    ("core.rollout_self_s", "s", "lower"),
    ("core.worker_idle_share", "share", "lower"),
    ("core.ppo_update_s", "s", "lower"),
    ("core.ppo_minibatch_calls", "count", "lower"),
    ("core.ppo_minibatch_ms", "ms", "lower"),
    ("rl.gae_s", "s", "lower"),
    ("nn.infer_macs_per_decision", "MAC", "lower"),
    ("nn.infer_gmacs_per_s", "GMAC/s", "higher"),
    ("nn.ppo_macs_per_minibatch", "MAC", "lower"),
    ("nn.ppo_gmacs_per_s", "GMAC/s", "higher"),
    ("serve.fleet_step_s", "s", "lower"),
    ("serve.step_s", "s", "lower"),
    ("serve.infer_s", "s", "lower"),
    ("serve.fleet_self_s", "s", "lower"),
    ("serve.level_full_share", "share", "higher"),
    ("serve.level_degraded_share", "share", "lower"),
    ("serve.level_standby_share", "share", "lower"),
    ("serve.level_shed_share", "share", "lower"),
    ("serve.fallbacks", "count", "lower"),
    ("serve.breaker_opens", "count", "lower"),
    ("obs.flight_frames", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.layer_sum_gap_pct", "%", "lower"),
];

/// How big the workloads are. `Tiny` shrinks every workload to a
/// seconds-long smoke run for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Minimal sizes exercising the same code paths.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement budget in seconds (at least a few operations run
    /// regardless).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one invocation produces.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (warm-up, measured and check operations).
    pub attempted: u64,
    /// Operations that errored, left non-finite state, or were not
    /// served at policy level.
    pub failed: u64,
    /// The metrics of this run's kind, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines: stamps, digests, named figures and
    /// the layer table.
    pub report: Vec<String>,
}

impl Outcome {
    /// The result object printed as the last line of a run.
    pub fn to_json(&self) -> tsc_obs::Json {
        use tsc_obs::Json;
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }
}

/// Per-layer values being filled in by a traced run; every name of
/// [`PER_LAYER`] starts at 0.
#[derive(Debug, Clone)]
pub(crate) struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub(crate) fn new() -> Self {
        LayerValues(PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect())
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`PER_LAYER`] (a benchmark bug).
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a catalogued per-layer metric"));
        *slot = value;
    }

    pub(crate) fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub(crate) fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                unit,
                value: self.get(name),
            })
            .collect()
    }
}

/// The walls of a run's measured operations.
#[derive(Debug, Clone, Default)]
pub(crate) struct Walls {
    /// Seconds per untraced operation.
    pub untraced: Vec<f64>,
    /// Seconds per traced operation.
    pub traced: Vec<f64>,
}

/// Runs `op` in a closed loop for `opts.seconds`: each call starts
/// after the previous one returned. Untraced runs call `op(false)`
/// throughout; traced runs alternate `op(false)` and `op(true)` so
/// both see the same drift, and the gap between them is the tracing
/// overhead. At least `min_ops` operations of each kind run.
///
/// `op` returns the wall seconds of its timed region.
pub(crate) fn closed_loop(
    opts: &Options,
    min_ops: usize,
    mut op: impl FnMut(bool) -> Result<f64, String>,
) -> Result<Walls, String> {
    let start = Instant::now();
    let mut walls = Walls::default();
    loop {
        let done = start.elapsed().as_secs_f64() >= opts.seconds;
        let enough =
            walls.untraced.len() >= min_ops && (!opts.trace || walls.traced.len() >= min_ops);
        if done && enough {
            return Ok(walls);
        }
        walls.untraced.push(op(false)?);
        if opts.trace {
            walls.traced.push(op(true)?);
        }
    }
}

/// Runs `f` with span collection on when `traced`, and off afterwards.
pub(crate) fn with_spans<T>(traced: bool, f: impl FnOnce() -> T) -> T {
    tsc_obs::span::set_enabled(traced);
    let out = f();
    tsc_obs::span::set_enabled(false);
    out
}

/// FNV-1a over 64-bit words: the benchmark's output digests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn word(&mut self, w: u64) {
        for i in 0..8 {
            self.0 ^= (w >> (i * 8)) & 0xff;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.word(u64::from(x.to_bits()));
        }
    }

    pub(crate) fn value(self) -> u64 {
        self.0
    }
}
