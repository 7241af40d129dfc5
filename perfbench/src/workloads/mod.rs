//! The four workloads and what they share: set-up timing, the
//! end-to-end metric set, and the per-layer values every span-reading
//! workload fills the same way.

mod city;
mod fleet;
mod rollout;
mod train;

use std::time::Instant;

use pairuplight::{ObsEncoder, ObsNorm, PairUpLightConfig};
use tsc_sim::TscEnv;

use crate::host::{peak_rss_mb, HostStamp};
use crate::stats::median;
use crate::trace::SpanTable;
use crate::{LayerValues, Metric, Options, Outcome, Walls, END_TO_END};

/// Times each workload's set-up this many times per run and reports
/// the median, so one slow allocation does not move `setup_s`.
pub(crate) const SETUP_REPEATS: usize = 5;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PPO training rounds on the paper's 6×6 grid.
    TrainGrid6,
    /// Parallel rollout collection with a frozen policy on the 6×6 grid.
    RolloutGrid6,
    /// A compiled 3025-intersection city under MaxPressure.
    City3025,
    /// A six-tenant serving fleet under an admission surge.
    FleetSurge,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainGrid6,
        Workload::RolloutGrid6,
        Workload::City3025,
        Workload::FleetSurge,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainGrid6 => "train-grid6",
            Workload::RolloutGrid6 => "rollout-grid6",
            Workload::City3025 => "city-3025",
            Workload::FleetSurge => "fleet-surge",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Runs one workload and returns its outcome.
///
/// # Errors
///
/// When the workload cannot be set up or a call into the program
/// fails in a way that leaves nothing to measure.
pub fn run_workload(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let mut outcome = match workload {
        Workload::TrainGrid6 => train::run(opts),
        Workload::RolloutGrid6 => rollout::run(opts),
        Workload::City3025 => city::run(opts),
        Workload::FleetSurge => fleet::run(opts),
    }?;
    let mut header = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} scale={:?}",
            workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            opts.scale
        ),
        HostStamp::current().to_string(),
    ];
    header.append(&mut outcome.report);
    outcome.report = header;
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        outcome.correct = false;
        outcome
            .report
            .push(format!("check FAILED: metric {} is not finite", bad.name));
    }
    Ok(outcome)
}

/// Runs `build` [`SETUP_REPEATS`] times, timing each, and returns the
/// set-up seconds with the first `keep` built worlds; the others are
/// dropped at once, so they do not count towards peak memory.
pub(crate) fn timed_setups<W>(
    keep: usize,
    mut build: impl FnMut() -> Result<W, String>,
) -> Result<(Vec<f64>, Vec<W>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut worlds = Vec::with_capacity(keep);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let world = build()?;
        secs.push(t.elapsed().as_secs_f64());
        if worlds.len() < keep {
            worlds.push(world);
        }
    }
    Ok((secs, worlds))
}

/// The end-to-end metrics of an untraced run; appends the spread of
/// the operation and set-up walls to `report`.
pub(crate) fn end_to_end(
    report: &mut Vec<String>,
    setup_s: &[f64],
    walls: &Walls,
    throughput: f64,
) -> Result<Vec<Metric>, String> {
    for (what, values) in [
        ("operation", walls.untraced.as_slice()),
        ("set-up", setup_s),
    ] {
        let ms: Vec<f64> = values.iter().map(|s| s * 1e3).collect();
        if let (Some([q1, q2, q3]), Some(lo), Some(hi)) = (
            crate::stats::quartiles(&ms),
            ms.iter().copied().reduce(f64::min),
            ms.iter().copied().reduce(f64::max),
        ) {
            report.push(format!(
                "walls {what}: n={} min={lo:.4} q1={q1:.4} median={q2:.4} q3={q3:.4} max={hi:.4} ms",
                ms.len()
            ));
        }
    }
    let values = [
        median(setup_s).ok_or("no set-up was timed")?,
        peak_rss_mb()?,
        median(&walls.untraced).ok_or("no operation was timed")? * 1e3,
        throughput,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, unit, value })
        .collect())
}

/// Tracing overhead: the traced operations' median wall over the
/// untraced operations' median, in percent.
pub(crate) fn overhead_pct(walls: &Walls) -> f64 {
    match (median(&walls.untraced), median(&walls.traced)) {
        (Some(u), Some(t)) if u > 0.0 => (t - u) / u * 100.0,
        _ => 0.0,
    }
}

/// Fills every per-layer value read straight off the program's own
/// spans, as a per-operation mean over `ops` traced operations.
/// `busy_s` is the traced time the shares are taken of.
pub(crate) fn fill_program_layers(v: &mut LayerValues, t: &SpanTable, ops: usize, busy_s: f64) {
    let per_op = 1.0 / ops.max(1) as f64;
    v.set("sim.observe_all_s", t.total_s("sim.observe_all") * per_op);
    v.set(
        "sim.observe_all_calls",
        t.count("sim.observe_all") as f64 * per_op,
    );
    v.set(
        "sim.observe_all_share",
        t.total_s("sim.observe_all") / busy_s.max(1e-12),
    );
    v.set("sim.step_s", t.total_s("sim.tick") * per_op);
    v.set("sim.env_step_s", t.total_s("sim.env_step") * per_op);
    v.set("sim.ev.advance_s", t.total_s("sim.ev.advance") * per_op);
    v.set("sim.ev.discharge_s", t.total_s("sim.ev.discharge") * per_op);
    v.set("sim.ev.demand_s", t.total_s("sim.ev.demand") * per_op);
    v.set("sim.ev.backlog_s", t.total_s("sim.ev.backlog") * per_op);
    v.set("core.infer_s", t.total_s("rollout.infer") * per_op);
    v.set("core.infer_calls", t.count("rollout.infer") as f64 * per_op);
    v.set("core.rollout_self_s", t.self_s("rollout.episode") * per_op);
    v.set("core.ppo_update_s", t.total_s("ppo.update") * per_op);
    v.set(
        "core.ppo_minibatch_calls",
        t.count("ppo.minibatch") as f64 * per_op,
    );
    if t.count("ppo.minibatch") > 0 {
        v.set(
            "core.ppo_minibatch_ms",
            t.total_s("ppo.minibatch") / t.count("ppo.minibatch") as f64 * 1e3,
        );
    }
    v.set("rl.gae_s", t.total_s("gae.compute_targets") * per_op);
    v.set("serve.step_s", t.total_s("serve.step") * per_op);
    v.set("serve.infer_s", t.total_s("serve.infer") * per_op);
}

/// Multiply-accumulates of one forward pass per decision, computed
/// from the layer shapes: `(actor, critic)`.
///
/// Actor: `FC(obs + msg → hidden) → LSTM(hidden → lstm) → {policy,
/// message}` heads; critic: `FC(critic input → hidden) → LSTM → value`.
/// An LSTM step is `in·4h + h·4h`.
pub(crate) fn forward_macs(env: &TscEnv, cfg: &PairUpLightConfig) -> (f64, f64) {
    let scenario = env.scenario();
    let encoder = ObsEncoder::new(
        &scenario.network,
        &scenario.agents(),
        cfg.max_phases,
        ObsNorm::default(),
    );
    let critic_in = match cfg.critic_mode {
        pairuplight::CriticMode::Local => encoder.local_dim(),
        pairuplight::CriticMode::Centralized => encoder.critic_dim(),
    };
    let (h, l) = (cfg.hidden, cfg.lstm_hidden);
    let lstm = h * 4 * l + l * 4 * l;
    let actor =
        (encoder.local_dim() + cfg.bandwidth) * h + lstm + l * cfg.max_phases + l * cfg.bandwidth;
    let critic = critic_in * h + lstm + l;
    (actor as f64, critic as f64)
}

/// Multiply-accumulates of one training row (forward plus a backward
/// pass counted as twice the forward: input and weight gradients).
pub(crate) fn train_row_macs(actor: f64, critic: f64) -> f64 {
    3.0 * (actor + critic)
}

/// Appends the layer table and its sum check to `report`; returns the
/// gap in percent and whether it is within tolerance.
pub(crate) fn report_layers(
    report: &mut Vec<String>,
    table: &SpanTable,
    extra_rows: &[(&'static str, u64, f64)],
    wall_s: f64,
    ops: usize,
) -> (f64, bool) {
    let mut rows = table.rows();
    rows.extend_from_slice(extra_rows);
    let selfs: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let gap = crate::trace::layer_sum_gap_pct(wall_s, &selfs);
    let ok = gap <= crate::trace::LAYER_SUM_TOLERANCE_PCT;
    report.push(format!(
        "layer table ({ops} traced op(s), {wall_s:.3} s traced wall):"
    ));
    report.extend(crate::trace::render_table(&rows, wall_s, ops));
    report.push(format!(
        "layer sum check: self times sum to within {gap:.3}% of the traced wall \
         (tolerance {}%): {}",
        crate::trace::LAYER_SUM_TOLERANCE_PCT,
        if ok { "ok" } else { "FAILED" }
    ));
    (gap, ok)
}

/// A check line for the report.
pub(crate) fn check_line(name: &str, ok: bool, detail: impl std::fmt::Display) -> String {
    format!(
        "check {name}: {} ({detail})",
        if ok { "ok" } else { "FAILED" }
    )
}

/// A named end-to-end figure line for the report.
pub(crate) fn named(name: &str, value: f64, unit: &str, note: &str) -> String {
    format!("named {name} = {value:.6} {unit} ({note})")
}
