//! `fleet-surge`: a six-tenant serving fleet under an admission surge.
//!
//! One caller drives `FleetRuntime::step_with_load` in a closed loop.
//! Tenants mix 6×6 and 3×3 grids with the default networks and cycle
//! through gold/silver/bronze SLA classes. The offered load repeats a
//! 64-step cycle: 32 steps of one request per tenant, then 32 steps of
//! four, a surge whose full-service demand exceeds the admission
//! capacity. One operation is one such cycle: surge and calm steps cost
//! differently, so the median of single steps would sit between the two
//! and jump from run to run, while every cycle does the same work. The capacity is
//! set so that the surge browns one tenant out to decimated inference
//! and never to standby or shed, whatever the tie-break order, so a
//! standby, shed or fallback decision is a failure. The flight recorder
//! is on and there is no infrastructure chaos. Stepping the tenants'
//! environments to produce the next observations happens outside the
//! timed region.

use std::time::{Duration, Instant};

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_obs::span::SpanGuard;
use tsc_serve::{
    AdmissionConfig, FleetConfig, FleetRuntime, FlightConfig, LoadPlan, ServeConfig, ServedBy,
    ServiceLevel, SlaClass, TenantSel, TenantSpec,
};
use tsc_sim::rollout::derive_rollout_seed;
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{grid_scenario, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, IntersectionObs, SimConfig, TscEnv, Window};

use super::{
    check_line, end_to_end, fill_program_layers, forward_macs, named, overhead_pct, report_layers,
    timed_setups,
};
use crate::stats::{median, percentile, Percentile};
use crate::trace::SpanTable;
use crate::{closed_loop, with_spans, Digest, LayerValues, Options, Outcome, Scale};

const ROOT: &str = "bench.fleet.step";

/// The SLA classes tenants cycle through (tenant `i` gets `i % 3`).
const CLASSES: [(&str, SlaClass); 3] = [
    (
        "gold",
        SlaClass {
            priority: 2,
            deadline_us: 50_000,
            max_shed_rate: 0.0,
        },
    ),
    (
        "silver",
        SlaClass {
            priority: 1,
            deadline_us: 100_000,
            max_shed_rate: 0.25,
        },
    ),
    (
        "bronze",
        SlaClass {
            priority: 0,
            deadline_us: 200_000,
            max_shed_rate: 0.9,
        },
    ),
];

/// Offered-load cycle length in fleet steps; the surge is its second
/// half.
const CYCLE: u64 = 64;
/// Requests per tenant per step during the surge.
const SURGE: u64 = 4;
/// Cycles run before measuring; the same cycles on a fresh fleet must
/// reproduce their digest.
const REPLAY_CYCLES: usize = 4;

/// Grid side per tenant and the admission capacity at each scale. At
/// full scale the surge demand is 4 × 135 = 540 agent-decisions
/// against 530: every tie-break order degrades exactly one bronze
/// tenant and leaves everyone else at full service.
fn sizes(scale: Scale) -> ([usize; 6], u64, PairUpLightConfig) {
    match scale {
        Scale::Full => ([6, 3, 6, 6, 3, 3], 530, PairUpLightConfig::default()),
        Scale::Tiny => (
            [3, 2, 3, 3, 2, 2],
            152,
            PairUpLightConfig {
                hidden: 12,
                lstm_hidden: 12,
                ..PairUpLightConfig::default()
            },
        ),
    }
}

struct Tenant {
    class: usize,
    env: TscEnv,
    obs: Vec<IntersectionObs>,
    episodes: u64,
    env_seed: u64,
}

struct World {
    fleet: FleetRuntime,
    tenants: Vec<Tenant>,
    plan: LoadPlan,
    load_seed: u64,
    cfg: PairUpLightConfig,
}

fn build(opts: &Options) -> Result<World, String> {
    let (sides, capacity, cfg) = sizes(opts.scale);
    let mut tenants = Vec::new();
    let mut specs = Vec::new();
    for (i, &side) in sides.iter().enumerate() {
        let i64 = i as u64;
        let grid = Grid::build(GridConfig {
            cols: side,
            rows: side,
            ..GridConfig::default()
        })
        .map_err(|e| format!("grid: {e}"))?;
        let pattern = FlowPattern::ALL[i % FlowPattern::ALL.len()];
        let scenario = grid_scenario(&grid, pattern, &PatternConfig::default())
            .map_err(|e| format!("scenario: {e}"))?;
        let env_seed = derive_rollout_seed(opts.seed, i64, 0xE4F);
        let mut env = TscEnv::new(
            scenario,
            SimConfig::default(),
            EnvConfig::default(),
            env_seed,
        )
        .map_err(|e| format!("env: {e}"))?;
        let model = PairUpLight::new(
            &env,
            PairUpLightConfig {
                seed: derive_rollout_seed(opts.seed, i64, 0xC0F1),
                ..cfg
            },
        );
        let class = i % CLASSES.len();
        specs.push(TenantSpec {
            name: format!("tenant-{i}-{}", CLASSES[class].0),
            snapshot: model.policy_snapshot(),
            serve_cfg: ServeConfig::default(),
            checkpoint: None,
            sla: CLASSES[class].1,
        });
        let obs = env.reset(env_seed);
        tenants.push(Tenant {
            class,
            env,
            obs,
            episodes: 0,
            env_seed,
        });
    }
    let fleet = FleetRuntime::new(
        FleetConfig {
            seed: derive_rollout_seed(opts.seed, 0, 0xF1EE7),
            admission: Some(AdmissionConfig { capacity }),
            flight: Some(FlightConfig::default()),
            ..FleetConfig::default()
        },
        specs,
    );
    let plan = LoadPlan::new().phase(
        Window::new((CYCLE / 2) as u32, CYCLE as u32),
        TenantSel::All,
        SURGE,
        0,
    );
    Ok(World {
        fleet,
        tenants,
        plan,
        load_seed: derive_rollout_seed(opts.seed, 0, 0x10AD),
        cfg,
    })
}

/// Tallies over a run's fleet steps.
#[derive(Default)]
struct Tally {
    /// Agent decisions requested.
    attempted: u64,
    /// Agent decisions answered at standby or shed level, or by the
    /// standby controller, or from a panicked tenant.
    failed: u64,
    /// Offered decisions (offered requests × agents) of measured
    /// untraced steps, and those served at full level within deadline.
    offered: u64,
    good: u64,
    /// Agent decisions whose tenant ran its policy forward, in traced
    /// steps (the inference work `serve.infer` timed).
    inferred_traced: u64,
    /// Decisions returned in measured untraced steps.
    decisions: u64,
    /// Wall of each measured untraced `step_with_load`, in microseconds.
    step_us: Vec<f64>,
    /// Per-tenant step latency of gold tenants, in microseconds.
    gold_us: Vec<f64>,
}

/// One fleet step: offered load from the cycle, the timed
/// `step_with_load`, accounting, then the untimed environment steps.
/// Returns the timed seconds and the step digest.
fn step(
    world: &mut World,
    tally: &mut Tally,
    measured: bool,
    traced: bool,
) -> Result<(f64, u64), String> {
    let step = world.fleet.steps();
    let offered = world
        .plan
        .offered_all(world.load_seed, step % CYCLE, world.tenants.len());
    let views: Vec<&[IntersectionObs]> = world.tenants.iter().map(|t| t.obs.as_slice()).collect();
    let t = Instant::now();
    let out = with_spans(traced, || {
        let _span = SpanGuard::enter(ROOT);
        world.fleet.step_with_load(&views, &offered)
    });
    let wall_s = t.elapsed().as_secs_f64();
    let out = out.map_err(|e| format!("fleet step: {e}"))?;
    if measured && !traced {
        tally.step_us.push(wall_s * 1e6);
    }
    for ((ts, tenant), &offered) in out.tenants.iter().zip(&mut world.tenants).zip(&offered) {
        let agents = ts.actions.len() as u64;
        tally.attempted += agents;
        let fell_back = matches!(ts.level, ServiceLevel::Standby | ServiceLevel::Shed)
            || ts.served_by == ServedBy::Standby
            || ts.panicked;
        tally.failed += if fell_back { agents } else { 0 };
        if traced && ts.served_by == ServedBy::Policy {
            tally.inferred_traced += agents;
        }
        if measured && !traced {
            tally.decisions += agents;
            let deadline = Duration::from_micros(CLASSES[tenant.class].1.deadline_us);
            tally.offered += offered * agents;
            if ts.level == ServiceLevel::Full && ts.latency <= deadline {
                tally.good += offered * agents;
            }
            if tenant.class == 0 {
                tally.gold_us.push(ts.latency.as_secs_f64() * 1e6);
            }
        }
        let next = tenant
            .env
            .step(&ts.actions)
            .map_err(|e| format!("env step: {e}"))?;
        tenant.obs = if next.done {
            tenant.episodes += 1;
            tenant
                .env
                .reset(derive_rollout_seed(tenant.env_seed, tenant.episodes, 0))
        } else {
            next.obs
        };
    }
    Ok((wall_s, out.digest()))
}

/// One load cycle of [`CYCLE`] fleet steps: the summed timed seconds
/// and the folded step digests.
fn cycle(
    world: &mut World,
    tally: &mut Tally,
    measured: bool,
    traced: bool,
) -> Result<(f64, u64), String> {
    let mut wall_s = 0.0;
    let mut d = Digest::new();
    for _ in 0..CYCLE {
        let (wall, digest) = step(world, tally, measured, traced)?;
        wall_s += wall;
        d.word(digest);
    }
    Ok((wall_s, d.value()))
}

/// Folds the digests of the first [`REPLAY_CYCLES`] cycles.
fn warm_up(world: &mut World, tally: &mut Tally) -> Result<u64, String> {
    let mut d = Digest::new();
    for _ in 0..REPLAY_CYCLES {
        d.word(cycle(world, tally, false, false)?.1);
    }
    Ok(d.value())
}

fn percentile_line(name: &str, p: Option<Percentile>, samples: usize) -> String {
    match p {
        Some(p) => named(
            name,
            p.value,
            "us",
            &format!("exact, {} samples, {} beyond", p.samples, p.beyond),
        ),
        None => format!("named {name} = unresolved (fewer than 10 of {samples} samples beyond it)"),
    }
}

pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let (setup_s, mut worlds) = timed_setups(2, || build(opts))?;
    let mut replay = worlds.pop().ok_or("no replay world")?;
    let mut world = worlds.pop().ok_or("no world")?;
    let fingerprints: Vec<String> = world
        .tenants
        .iter()
        .map(|t| format!("{:016x}", t.env.scenario_fingerprint()))
        .collect();

    let mut tally = Tally::default();
    let digest = warm_up(&mut world, &mut tally)?;
    let replay_digest = warm_up(&mut replay, &mut tally)?;
    drop(replay);

    tsc_obs::span::reset();
    let walls = closed_loop(opts, 3, |traced| {
        cycle(&mut world, &mut tally, true, traced).map(|(wall, _)| wall)
    })?;
    let table = SpanTable::collect(&[ROOT]);

    let n = world.tenants.len();
    let policy_fallbacks: u64 = (0..n)
        .map(|t| world.fleet.tenant_telemetry(t).fallback_decisions())
        .sum();
    let breaker_opens: u64 = (0..n)
        .map(|t| world.fleet.tenant_stats(t).breaker_trips)
        .sum();
    let mut levels = [0u64; ServiceLevel::COUNT];
    for t in 0..n {
        for (slot, v) in levels
            .iter_mut()
            .zip(world.fleet.tenant_telemetry(t).level_steps())
        {
            *slot += v;
        }
    }
    let failed = tally.failed + policy_fallbacks;
    let replay_ok = digest == replay_digest;
    let degraded_seen = levels[ServiceLevel::Degraded.index()] > 0;

    let agents: Vec<usize> = world.tenants.iter().map(|t| t.env.num_agents()).collect();
    let mut report = vec![
        format!(
            "inputs tenants={n} agents={agents:?} classes=gold/silver/bronze \
             load_seed={} cycle={CYCLE} surge={SURGE} fingerprints={fingerprints:?}",
            world.load_seed
        ),
        format!(
            "digest fleet.first_{}_steps={digest:016x}",
            REPLAY_CYCLES as u64 * CYCLE
        ),
        check_line(
            "same-seed replay",
            replay_ok,
            format!("{replay_digest:016x} vs {digest:016x}"),
        ),
        check_line(
            "no standby, shed or fallback decisions",
            failed == 0,
            format!("{failed} of {} decisions", tally.attempted),
        ),
        check_line(
            "the surge browns out",
            degraded_seen,
            format!(
                "{} degraded tenant-steps",
                levels[ServiceLevel::Degraded.index()]
            ),
        ),
    ];
    let mut correct = replay_ok && failed == 0 && degraded_seen;

    let metrics = if opts.trace {
        // Per-layer values are per fleet step, not per cycle.
        let ops = walls.traced.len() * CYCLE as usize;
        let wall: f64 = walls.traced.iter().sum();
        let per_op = 1.0 / ops.max(1) as f64;
        let mut v = LayerValues::new();
        fill_program_layers(&mut v, &table, ops, wall);
        let fleet_s = table.total_s(ROOT);
        v.set("serve.fleet_step_s", fleet_s * per_op);
        v.set(
            "serve.fleet_self_s",
            (fleet_s - table.total_s("serve.step")) * per_op,
        );
        let tenant_steps: u64 = levels.iter().sum();
        for (level, name) in ServiceLevel::ALL.iter().zip([
            "serve.level_full_share",
            "serve.level_degraded_share",
            "serve.level_standby_share",
            "serve.level_shed_share",
        ]) {
            v.set(
                name,
                levels[level.index()] as f64 / tenant_steps.max(1) as f64,
            );
        }
        v.set("serve.fallbacks", policy_fallbacks as f64);
        v.set("serve.breaker_opens", breaker_opens as f64);
        v.set(
            "obs.flight_frames",
            world.fleet.flight_health().frames_recorded as f64 / world.fleet.steps().max(1) as f64,
        );
        let (actor, _) = forward_macs(&world.tenants[0].env, &world.cfg);
        v.set("nn.infer_macs_per_decision", actor);
        let infer_s = table.total_s("serve.infer");
        if infer_s > 0.0 {
            v.set(
                "nn.infer_gmacs_per_s",
                actor * tally.inferred_traced as f64 / infer_s * 1e-9,
            );
        }
        v.set("trace.overhead_pct", overhead_pct(&walls));
        let (gap, ok) = report_layers(&mut report, &table, &[], wall, ops);
        v.set("trace.layer_sum_gap_pct", gap);
        correct &= ok;
        report.push(format!(
            "dominant layers: serve.infer = {:.1}%, fleet self (admission, supervisor, \
             recorder, telemetry) = {:.1}% of the traced fleet step",
            infer_s / wall.max(1e-12) * 100.0,
            v.get("serve.fleet_self_s") * ops as f64 / wall.max(1e-12) * 100.0
        ));
        v.into_metrics()
    } else {
        let untraced_s: f64 = walls.untraced.iter().sum();
        let throughput = tally.decisions as f64 / untraced_s.max(1e-12);
        let step_us = &tally.step_us;
        report.push(named(
            "fleet.decisions_per_s",
            throughput,
            "1/s",
            "agent decisions per wall second inside step_with_load (throughput)",
        ));
        report.push(percentile_line(
            "fleet.gold_p50_us",
            percentile(&tally.gold_us, 0.50),
            tally.gold_us.len(),
        ));
        report.push(percentile_line(
            "fleet.gold_p99_us",
            percentile(&tally.gold_us, 0.99),
            tally.gold_us.len(),
        ));
        report.push(percentile_line(
            "fleet.step_p99_us",
            percentile(step_us, 0.99),
            step_us.len(),
        ));
        report.push(named(
            "fleet.step_p50_us",
            median(step_us).unwrap_or(0.0),
            "us",
            "median step_with_load wall",
        ));
        report.push(named(
            "fleet.goodput",
            tally.good as f64 / tally.offered.max(1) as f64,
            "share",
            "offered decisions served at full level within the class deadline",
        ));
        end_to_end(&mut report, &setup_s, &walls, throughput)?
    };
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed,
        metrics,
        report,
    })
}
