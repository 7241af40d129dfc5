//! `train-grid6`: PPO training rounds on the paper's 6×6 grid.
//!
//! One operation is one round of `PairUpLight::train` with K = 1: a
//! 600 s episode collected on the calling thread, then the PPO update
//! (four epochs of 256-row minibatches with a backward pass). The
//! update dominates; inference and simulation are a small share.

use std::time::Instant;

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_obs::span::SpanGuard;
use tsc_sim::rollout::derive_rollout_seed;
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{grid_scenario, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, SimConfig, TscEnv};

use super::{
    check_line, end_to_end, fill_program_layers, forward_macs, named, overhead_pct, report_layers,
    timed_setups, train_row_macs,
};
use crate::stats::median;
use crate::trace::SpanTable;
use crate::{closed_loop, with_spans, Digest, LayerValues, Options, Outcome, Scale};

const ROOT: &str = "bench.train.round";

struct World {
    env: TscEnv,
    model: PairUpLight,
}

fn build(opts: &Options) -> Result<World, String> {
    let (side, horizon, cfg) = match opts.scale {
        Scale::Full => (6, 600, PairUpLightConfig::default()),
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
    Ok(World { env, model })
}

/// What one round left behind.
struct Round {
    wall_s: f64,
    steps: usize,
    ok: bool,
}

/// One training round on the episode seed of round `round`.
fn round(world: &mut World, seed: u64, round: u64, traced: bool) -> Round {
    let episode_seed = derive_rollout_seed(seed, round, 1);
    let t = Instant::now();
    let result = with_spans(traced, || {
        let _span = SpanGuard::enter(ROOT);
        world.model.train(&mut world.env, 1, episode_seed, |_| {})
    });
    let wall_s = t.elapsed().as_secs_f64();
    let (steps, losses_finite) = match &result {
        Ok(eps) => (
            eps.iter().map(|e| e.stats.steps).sum(),
            eps.iter().all(|e| {
                [e.policy_loss, e.value_loss, e.entropy, e.grad_norm]
                    .iter()
                    .all(|x| x.is_finite())
            }),
        ),
        Err(_) => (0, false),
    };
    let params_finite = world.model.parameter_vector().iter().all(|x| x.is_finite());
    Round {
        wall_s,
        steps,
        ok: result.is_ok() && losses_finite && params_finite,
    }
}

fn parameter_digest(model: &PairUpLight) -> u64 {
    let mut d = Digest::new();
    d.f32s(&model.parameter_vector());
    d.value()
}

pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let (setup_s, mut worlds) = timed_setups(2, || build(opts))?;
    let mut replay = worlds.pop().ok_or("no replay world")?;
    let mut world = worlds.pop().ok_or("no world")?;
    let agents = world.env.num_agents();
    let fingerprint = world.env.scenario_fingerprint();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |r: &Round| {
        attempted += 1;
        failed += u64::from(!r.ok);
    };

    // Warm-up: round 0, untimed; its parameters are the replay digest.
    let warm = round(&mut world, opts.seed, 0, false);
    tally(&warm);
    let digest = parameter_digest(&world.model);

    tsc_obs::span::reset();
    let mut next = 1u64;
    let mut steps_untraced = 0usize;
    let mut steps_traced = 0usize;
    let mut rounds = Vec::new();
    let walls = closed_loop(opts, 3, |traced| {
        let r = round(&mut world, opts.seed, next, traced);
        next += 1;
        if traced {
            steps_traced += r.steps;
        } else {
            steps_untraced += r.steps;
        }
        let wall = r.wall_s;
        rounds.push(r);
        Ok(wall)
    })?;
    for r in &rounds {
        tally(r);
    }
    let table = SpanTable::collect(&[ROOT]);

    // Same seed, fresh learner: round 0 must reproduce the parameters.
    let again = round(&mut replay, opts.seed, 0, false);
    tally(&again);
    let replay_digest = parameter_digest(&replay.model);
    let replay_ok = replay_digest == digest;

    let mut report = vec![
        format!(
            "inputs scenario=grid{side}x{side}-pattern-one fingerprint={fingerprint:016x} \
             agents={agents} episode_seed(round r)=derive_rollout_seed({}, r, 1)",
            opts.seed,
            side = (agents as f64).sqrt() as usize
        ),
        format!("digest train.parameters_after_round0={digest:016x}"),
        check_line(
            "finite parameters and losses",
            failed == 0,
            format!("{failed} of {attempted} rounds failed"),
        ),
        check_line(
            "same-seed replay",
            replay_ok,
            format!("{replay_digest:016x} vs {digest:016x}"),
        ),
    ];
    let mut correct = replay_ok && failed == 0;

    let metrics = if opts.trace {
        let ops = walls.traced.len();
        let wall: f64 = walls.traced.iter().sum();
        let mut v = LayerValues::new();
        fill_program_layers(&mut v, &table, ops, wall);
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
        let rows = world.model.config().ppo.epochs as f64 * decisions;
        let minibatches = table.count("ppo.minibatch") as f64;
        let minibatch_s = table.total_s("ppo.minibatch");
        if minibatches > 0.0 && minibatch_s > 0.0 {
            let macs = train_row_macs(actor, critic) * rows;
            v.set("nn.ppo_macs_per_minibatch", macs / minibatches);
            v.set("nn.ppo_gmacs_per_s", macs / minibatch_s * 1e-9);
        }
        v.set("trace.overhead_pct", overhead_pct(&walls));
        let (gap, ok) = report_layers(&mut report, &table, &[], wall, ops);
        v.set("trace.layer_sum_gap_pct", gap);
        correct &= ok;
        report.push(format!(
            "dominant layer: ppo.update = {:.1}% of the traced round",
            table.total_s("ppo.update") / wall.max(1e-12) * 100.0
        ));
        v.into_metrics()
    } else {
        let untraced_s: f64 = walls.untraced.iter().sum();
        let throughput = steps_untraced as f64 / untraced_s.max(1e-12);
        let round_s = median(&walls.untraced).unwrap_or(0.0);
        report.push(named(
            "train.round_s",
            round_s,
            "s",
            "median wall per PPO round",
        ));
        report.push(named(
            "train.env_steps_per_s",
            throughput,
            "1/s",
            "env steps trained per wall second (throughput)",
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
