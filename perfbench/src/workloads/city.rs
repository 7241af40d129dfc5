//! `city-3025`: a compiled 3025-intersection city under MaxPressure.
//!
//! Set-up compiles `city_spec(3000, 42)`, so `tsc-scenario`'s compiler
//! is in `setup_s`; the workload seed draws the vehicles. One operation is one simulated hour on a
//! single thread: observe every intersection, let MaxPressure decide,
//! request the phases, advance one decision interval. There is no
//! neural network here, so a kernel change must not move it. Every
//! hour replays the same simulation seed and must reproduce the first
//! hour's digest and conserve vehicles.

use std::time::Instant;

use tsc_baselines::MaxPressureController;
use tsc_obs::span::SpanGuard;
use tsc_scenario::{city_spec, compile, CompiledScenario};
use tsc_sim::rollout::derive_rollout_seed;
use tsc_sim::{Controller, SimConfig, Simulation, TripStats};

use super::{
    check_line, end_to_end, fill_program_layers, named, overhead_pct, report_layers, timed_setups,
};
use crate::stats::median;
use crate::trace::SpanTable;
use crate::{closed_loop, with_spans, Digest, LayerValues, Options, Outcome, Scale};

const ROOT: &str = "bench.city.hour";
const OBSERVE: &str = "bench.city.observe_all";
const DECIDE: &str = "bench.city.max_pressure";
const STEP: &str = "bench.city.step";
/// The city map is fixed, so every seed measures the same network and
/// a seed changes only the vehicles: a map drawn per seed would move
/// the cost per hour by tens of percent between seeds.
const MAP_SEED: u64 = 42;
/// Yellow (2 s) plus the decision interval (5 s).
const SECONDS_PER_DECISION: u32 = 7;

struct World {
    compiled: CompiledScenario,
    phase_counts: Vec<usize>,
    horizon: u32,
}

fn build(opts: &Options) -> Result<(World, f64), String> {
    let (intersections, horizon) = match opts.scale {
        Scale::Full => (3000, 3600),
        Scale::Tiny => (36, 140),
    };
    let spec = city_spec(intersections, MAP_SEED);
    let t = Instant::now();
    let compiled = compile(&spec).map_err(|e| format!("compile {}: {e}", spec.name))?;
    let compile_s = t.elapsed().as_secs_f64();
    let phase_counts = compiled
        .scenario
        .signal_plans
        .iter()
        .map(tsc_sim::SignalPlan::num_phases)
        .collect();
    Ok((
        World {
            compiled,
            phase_counts,
            horizon,
        },
        compile_s,
    ))
}

/// What one simulated hour left behind.
struct Hour {
    wall_s: f64,
    digest: u64,
    conserved: bool,
    spawned: usize,
}

/// Drives one simulated hour from a fresh simulation on `sim_seed`.
fn hour(world: &World, sim_seed: u64, traced: bool) -> Result<Hour, String> {
    let scenario = &world.compiled.scenario;
    let mut sim = Simulation::new(scenario, SimConfig::default(), sim_seed)
        .map_err(|e| format!("simulation: {e}"))?;
    let agents = sim.signalized();
    let mut controller = MaxPressureController::default();
    controller.reset();
    let t = Instant::now();
    let driven: Result<(), tsc_sim::SimError> = with_spans(traced, || {
        let _hour = SpanGuard::enter(ROOT);
        // Reassigned inside the observe span, so freeing the previous
        // observations is charged to observation too.
        let mut obs;
        while sim.time() < world.horizon {
            {
                let _s = SpanGuard::enter(OBSERVE);
                obs = sim.observe_all();
            }
            {
                let _s = SpanGuard::enter(DECIDE);
                let actions = controller.decide(&obs);
                for ((&node, &action), &phases) in
                    agents.iter().zip(&actions).zip(&world.phase_counts)
                {
                    sim.request_phase(node, action % phases)?;
                }
            }
            let _s = SpanGuard::enter(STEP);
            for _ in 0..SECONDS_PER_DECISION {
                sim.step()?;
            }
        }
        Ok(())
    });
    let wall_s = t.elapsed().as_secs_f64();
    driven.map_err(|e| format!("simulation step: {e}"))?;

    let spawned = sim.metrics().spawned();
    let finished = sim.metrics().finished();
    let active = sim.active_vehicles();
    let trips = TripStats::collect(&sim);
    let mut d = Digest::new();
    for w in [spawned, finished, active, sim.backlog_vehicles()] {
        d.word(w as u64);
    }
    d.word(trips.all.mean.to_bits());
    d.word(trips.finished.p99.to_bits());
    Ok(Hour {
        wall_s,
        digest: d.value(),
        conserved: spawned == active + finished,
        spawned,
    })
}

pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let mut compile_s = Vec::new();
    let (setup_s, mut worlds) = timed_setups(1, || {
        let (world, secs) = build(opts)?;
        compile_s.push(secs);
        Ok(world)
    })?;
    let world = worlds.pop().ok_or("no world")?;
    let agents = world.phase_counts.len();
    let fingerprint = world.compiled.fingerprint;
    let sim_seed = derive_rollout_seed(opts.seed, 0, 0x5EED);
    let agent_sim_s = agents as f64 * f64::from(world.horizon);

    // Warm-up hour, untimed: its digest is the one every hour repeats.
    let warm = hour(&world, sim_seed, false)?;
    let mut attempted = 1u64;
    let mut failed = u64::from(!warm.conserved);
    let mut mismatches = 0u64;
    let mut unconserved = u64::from(!warm.conserved);

    tsc_obs::span::reset();
    let walls = closed_loop(opts, 3, |traced| {
        let h = hour(&world, sim_seed, traced)?;
        attempted += 1;
        if !h.conserved || h.digest != warm.digest {
            failed += 1;
            mismatches += u64::from(h.digest != warm.digest);
            unconserved += u64::from(!h.conserved);
        }
        Ok(h.wall_s)
    })?;
    let table = SpanTable::collect(&[ROOT]);

    let mut report = vec![
        format!(
            "inputs scenario={} fingerprint={fingerprint:016x} agents={agents} \
             links={} sim_seed={sim_seed} horizon_s={}",
            world.compiled.spec.name,
            world.compiled.scenario.network.num_links(),
            world.horizon
        ),
        format!(
            "digest city.hour={:016x} (spawned {} vehicles)",
            warm.digest, warm.spawned
        ),
        check_line(
            "vehicle conservation (spawned == active + finished)",
            unconserved == 0,
            format!("{unconserved} of {attempted} hours violated it"),
        ),
        check_line(
            "same-seed replay",
            mismatches == 0,
            format!("{mismatches} of {attempted} hours diverged from the first"),
        ),
    ];
    let mut correct = failed == 0;

    let metrics = if opts.trace {
        let ops = walls.traced.len();
        let wall: f64 = walls.traced.iter().sum();
        let mut v = LayerValues::new();
        fill_program_layers(&mut v, &table, ops, wall);
        // The benchmark's own span also covers freeing the previous
        // observations, which the program's span does not.
        v.set(
            "sim.observe_all_s",
            table.total_s(OBSERVE) / ops.max(1) as f64,
        );
        v.set(
            "sim.observe_all_share",
            table.total_s(OBSERVE) / wall.max(1e-12),
        );
        v.set(
            "baselines.max_pressure_s",
            table.total_s(DECIDE) / ops.max(1) as f64,
        );
        v.set("scenario.compile_s", median(&compile_s).unwrap_or(0.0));
        v.set("trace.overhead_pct", overhead_pct(&walls));
        let (gap, ok) = report_layers(&mut report, &table, &[], wall, ops);
        v.set("trace.layer_sum_gap_pct", gap);
        correct &= ok;
        report.push(format!(
            "dominant layers: observe_all + step = {:.1}% of the traced hour",
            (table.total_s(OBSERVE) + table.total_s(STEP)) / wall.max(1e-12) * 100.0
        ));
        v.into_metrics()
    } else {
        let untraced_s: f64 = walls.untraced.iter().sum();
        let throughput = agent_sim_s * walls.untraced.len() as f64 / untraced_s.max(1e-12);
        report.push(named(
            "city.agent_sim_s_per_s",
            throughput,
            "1/s",
            "agents x simulated seconds per wall second (throughput)",
        ));
        report.push(named(
            "scenario.compile_s",
            median(&compile_s).unwrap_or(0.0),
            "s",
            "median compile time, part of setup_s",
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
