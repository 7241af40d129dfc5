//! `rollout-grid6`: parallel rollout collection with a frozen policy.
//!
//! One operation is one `PairUpLight::collect_rollouts` call over K = 2
//! replicas of the 6×6 grid on two scoped threads, each a full 3600 s
//! episode with the default networks. Every operation replays the same
//! two episode seeds, so each must reproduce the first one's digest.
//! Per-decision inference and the message plane dominate; there is no
//! backward pass.

use std::time::Instant;

use pairuplight::{PairUpLight, PairUpLightConfig, Rollout};
use tsc_obs::span::SpanGuard;
use tsc_sim::rollout::{derive_rollout_seed, RolloutSet};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{grid_scenario, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, SimConfig, TscEnv};

use super::{
    check_line, end_to_end, fill_program_layers, forward_macs, named, overhead_pct, report_layers,
    timed_setups,
};
use crate::trace::SpanTable;
use crate::{closed_loop, with_spans, Digest, LayerValues, Options, Outcome, Scale};

const ROOT: &str = "bench.rollout.collect";
/// The program's per-worker root span.
const WORKER_ROOT: &str = "rollout.episode";
/// Replicas, one scoped worker thread each.
const REPLICAS: usize = 2;

struct World {
    env: TscEnv,
    model: PairUpLight,
    set: RolloutSet,
}

fn build(opts: &Options) -> Result<World, String> {
    let (side, horizon, cfg) = match opts.scale {
        Scale::Full => (6, 3600, PairUpLightConfig::default()),
        Scale::Tiny => (
            2,
            140,
            PairUpLightConfig {
                hidden: 12,
                lstm_hidden: 12,
                ..PairUpLightConfig::default()
            },
        ),
    };
    let cfg = PairUpLightConfig {
        seed: derive_rollout_seed(opts.seed, 0, 0xC0F1),
        ..cfg
    };
    let grid = Grid::build(GridConfig {
        cols: side,
        rows: side,
        ..GridConfig::default()
    })
    .map_err(|e| format!("grid: {e}"))?;
    let scenario = grid_scenario(&grid, FlowPattern::One, &PatternConfig::default())
        .map_err(|e| format!("scenario: {e}"))?;
    let env = TscEnv::new(
        scenario,
        SimConfig::default(),
        EnvConfig {
            decision_interval: 5,
            episode_horizon: horizon,
        },
        derive_rollout_seed(opts.seed, 0, 0xE4F),
    )
    .map_err(|e| format!("env: {e}"))?;
    let model = PairUpLight::new(&env, cfg);
    let set = RolloutSet::new(&env, REPLICAS);
    Ok(World { env, model, set })
}

fn rollouts_digest(rollouts: &[Rollout]) -> u64 {
    let mut d = Digest::new();
    for r in rollouts {
        d.word(r.stats.steps as u64);
        d.word(r.stats.total_reward.to_bits());
        d.word(r.stats.spawned as u64);
        d.word(r.stats.finished as u64);
        for transitions in &r.trajectory.agents {
            for t in transitions {
                d.word(t.action as u64);
                d.f32s(&[t.reward, t.value, t.log_prob]);
                d.f32s(&t.message_in);
            }
        }
        d.f32s(&r.trajectory.last_values);
    }
    d.value()
}

/// What one collection call left behind.
struct Collect {
    wall_s: f64,
    /// Digest of the replicas' trajectories; `None` on error.
    digest: Option<u64>,
    steps: usize,
}

fn collect(world: &mut World, seeds: &[u64], traced: bool) -> Collect {
    let t = Instant::now();
    let result = with_spans(traced, || {
        let _span = SpanGuard::enter(ROOT);
        world.model.collect_rollouts(&mut world.set, seeds, true)
    });
    let wall_s = t.elapsed().as_secs_f64();
    match result {
        Ok(rollouts) => Collect {
            wall_s,
            digest: Some(rollouts_digest(&rollouts)),
            steps: rollouts.iter().map(|r| r.stats.steps).sum(),
        },
        Err(_) => Collect {
            wall_s,
            digest: None,
            steps: 0,
        },
    }
}

pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let (setup_s, mut worlds) = timed_setups(1, || build(opts))?;
    let mut world = worlds.pop().ok_or("no world")?;
    let agents = world.env.num_agents();
    let fingerprint = world.env.scenario_fingerprint();
    let params_finite = world.model.parameter_vector().iter().all(|x| x.is_finite());
    let seeds: Vec<u64> = (0..REPLICAS as u64)
        .map(|e| derive_rollout_seed(opts.seed, 0, e))
        .collect();

    // Warm-up call, untimed: its digest is the one every call repeats.
    let warm = collect(&mut world, &seeds, false);
    let digest = warm.digest;
    let mut attempted = 1u64;
    let mut failed = u64::from(digest.is_none() || !params_finite);
    let mut mismatches = 0u64;

    tsc_obs::span::reset();
    let mut steps_untraced = 0usize;
    let mut steps_traced = 0usize;
    let walls = closed_loop(opts, 3, |traced| {
        let c = collect(&mut world, &seeds, traced);
        attempted += 1;
        if c.digest.is_none() || c.digest != digest {
            failed += 1;
            mismatches += u64::from(c.digest.is_some());
        }
        if traced {
            steps_traced += c.steps;
        } else {
            steps_untraced += c.steps;
        }
        Ok(c.wall_s)
    })?;
    let table = SpanTable::collect(&[WORKER_ROOT]);

    let mut report = vec![
        format!(
            "inputs scenario=grid{side}x{side}-pattern-one fingerprint={fingerprint:016x} \
             agents={agents} replicas={REPLICAS} episode_seeds={seeds:?}",
            side = (agents as f64).sqrt() as usize
        ),
        format!(
            "digest rollout.trajectories={}",
            digest.map_or("error".to_string(), |d| format!("{d:016x}"))
        ),
        check_line(
            "finite frozen parameters",
            params_finite,
            "parameter_vector()",
        ),
        check_line(
            "same-seed replay",
            mismatches == 0 && digest.is_some(),
            format!("{mismatches} of {attempted} calls diverged from the first"),
        ),
    ];
    let mut correct = params_finite && failed == 0;

    let metrics = if opts.trace {
        let ops = walls.traced.len();
        let wall: f64 = walls.traced.iter().sum();
        // Worker lanes are the capacity the episodes run on; what the
        // episodes do not cover is idle (spawn, join, imbalance).
        let lanes_s = REPLICAS as f64 * wall;
        let busy_s = table.total_s(WORKER_ROOT);
        let idle_s = lanes_s - busy_s;
        let mut v = LayerValues::new();
        fill_program_layers(&mut v, &table, ops, lanes_s);
        v.set("core.worker_idle_share", idle_s / lanes_s.max(1e-12));
        let (actor, critic) = forward_macs(&world.env, world.model.config());
        let decisions = (steps_traced * agents) as f64;
        let infer_s = table.total_s("rollout.infer");
        v.set("nn.infer_macs_per_decision", actor + critic);
        if decisions > 0.0 && infer_s > 0.0 {
            v.set("core.infer_us_per_decision", infer_s / decisions * 1e6);
            v.set(
                "nn.infer_gmacs_per_s",
                (actor + critic) * decisions / infer_s * 1e-9,
            );
        }
        v.set("trace.overhead_pct", overhead_pct(&walls));
        let idle_row = [("worker idle", 0, idle_s)];
        let (gap, ok) = report_layers(&mut report, &table, &idle_row, lanes_s, ops);
        v.set("trace.layer_sum_gap_pct", gap);
        correct &= ok;
        report.push(format!(
            "dominant layer: rollout.infer = {:.1}% of the traced worker lanes",
            infer_s / lanes_s.max(1e-12) * 100.0
        ));
        v.into_metrics()
    } else {
        let untraced_s: f64 = walls.untraced.iter().sum();
        let throughput = steps_untraced as f64 / untraced_s.max(1e-12);
        report.push(named(
            "rollout.env_steps_per_s",
            throughput,
            "1/s",
            "env steps over both replicas per wall second (throughput)",
        ));
        end_to_end(&mut report, &setup_s, &walls, throughput)?
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
    })
}
