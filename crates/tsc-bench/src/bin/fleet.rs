//! Multi-tenant serving fleet under supervision: aggregate throughput,
//! per-tenant latency, and fault/recovery behavior across three
//! regimes.
//!
//! Each tenant is an independent `ServeRuntime` (own grid, own flow
//! pattern, own checkpoint) behind the `FleetRuntime` supervisor. The
//! bench drives the whole fleet step-by-step through three regimes:
//!
//! 1. **clean** — no deadline pressure, no injected faults; the
//!    baseline cost of supervision.
//! 2. **overload** — a tight per-step deadline plus injected latency
//!    spikes, exercising the deadline fallback and the circuit
//!    breaker's trip → backoff → probation → close cycle.
//! 3. **infra-chaos** — injected tenant panics (one tenant with a
//!    valid checkpoint, so quarantine → reload → recovery completes),
//!    permanently corrupted reloads on another (budget exhaustion,
//!    parked in quarantine), latency spikes, and a reload storm.
//!
//! The infra-chaos regime runs twice and asserts a bit-identical step
//! digest — the supervised fleet inherits the chaos engine's replay
//! guarantee. The bench also asserts that the process never aborts
//! (every injected panic is caught at the tenant boundary) and that at
//! least one full quarantine → recovery cycle completed.
//!
//! Usage: `fleet [--json] [--smoke] [--scenario <name-or-path>]
//! [steps]` (default steps: 400; `--smoke` shrinks the fleet and run
//! for CI; `--json` also writes `BENCH_fleet.json` and the live
//! Prometheus exposition `BENCH_fleet.prom` at the repo root).
//! With `--scenario` every tenant serves the compiled world instead
//! of the alternating grids.

use std::panic;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_bench::cli::{exit_on_error, BenchArgs};
use tsc_bench::report::{write_prometheus, Json};
use tsc_bench::world::resolve_scenario;
use tsc_obs::det::Fnv64;
use tsc_scenario::CompiledScenario;
use tsc_serve::{
    FleetConfig, FleetRuntime, FlightConfig, InfraChaosPlan, ServeConfig, SupervisorConfig,
    TenantSel, TenantSpec, TenantState,
};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, SimConfig, TscEnv, Window};

const SEED: u64 = 42;

fn main() {
    let args = BenchArgs::parse();
    let steps = args.pos_or(0, if args.smoke { 120usize } else { 400 });
    install_quiet_hook();
    exit_on_error("fleet bench", run(steps, &args));
}

/// Silences the default panic report for *injected* tenant panics —
/// they are caught at the tenant boundary and counted, so the stderr
/// backtrace banner would only be noise. Every other panic still goes
/// through the previous hook untouched.
fn install_quiet_hook() {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected tenant panic"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected tenant panic"));
        if !injected {
            prev(info);
        }
    }));
}

/// One tenant's fixed identity across every regime.
struct TenantSetup {
    name: String,
    grid: String,
    env: TscEnv,
    model: PairUpLight,
    checkpoint: PathBuf,
}

/// A heterogeneous fleet: alternating 2×2 / 3×3 grids, flow patterns
/// cycling through the paper's five, every tenant with a valid
/// checkpoint on disk (the reload path the supervisor recovers from).
/// With a compiled world, every tenant serves that world instead.
fn build_tenants(
    n: usize,
    world: Option<&CompiledScenario>,
) -> Result<Vec<TenantSetup>, Box<dyn std::error::Error>> {
    let patterns = FlowPattern::ALL;
    let mut out = Vec::new();
    for i in 0..n {
        // Generous horizon: the bench drives well under this many
        // decision steps, so episodes never terminate.
        let env_cfg = EnvConfig {
            decision_interval: 5,
            episode_horizon: 1_000_000,
        };
        let size = if i % 2 == 0 { 2 } else { 3 };
        let (name, grid_label, env) = match world {
            Some(compiled) => (
                format!("tenant-{i}-{}", compiled.scenario.name),
                compiled.scenario.name.clone(),
                compiled.env(SimConfig::default(), env_cfg, SEED)?,
            ),
            None => {
                let grid = Grid::build(GridConfig {
                    cols: size,
                    rows: size,
                    spacing: 150.0,
                })?;
                let pattern = patterns[i % patterns.len()];
                let f = flows(&grid, pattern, &PatternConfig::default())?;
                let scenario = grid.scenario("fleet-bench", f)?;
                (
                    format!("tenant-{i}-{pattern:?}"),
                    format!("{size}x{size}"),
                    TscEnv::new(scenario, SimConfig::default(), env_cfg, SEED)?,
                )
            }
        };
        let model = PairUpLight::new(
            &env,
            PairUpLightConfig {
                hidden: 16,
                lstm_hidden: 16,
                ..Default::default()
            },
        );
        let checkpoint = std::env::temp_dir().join(format!("tsc_fleet_bench_{i}.ckpt"));
        model.save_checkpoint(&checkpoint, SEED)?;
        out.push(TenantSetup {
            name,
            grid: grid_label,
            env,
            model,
            checkpoint,
        });
    }
    Ok(out)
}

fn specs_for(tenants: &[TenantSetup], serve_cfg: ServeConfig) -> Vec<TenantSpec> {
    tenants
        .iter()
        .map(|t| TenantSpec {
            name: t.name.clone(),
            snapshot: t.model.policy_snapshot(),
            serve_cfg,
            checkpoint: Some(t.checkpoint.clone()),
            sla: Default::default(),
        })
        .collect()
}

struct RegimeOutcome {
    /// FNV fold of every step digest — the replay fingerprint.
    digest: u64,
    /// Aggregate policy decisions per second of fleet-step wall time.
    decisions_per_sec: f64,
    rows: Vec<Json>,
    human: Vec<String>,
    recoveries: u64,
    final_states: Vec<TenantState>,
}

/// Drives `fleet` for `steps`, each tenant on its own environment
/// (tenant `i` reset with seed `100 + i`), and folds per-tenant
/// metrics into report rows.
fn run_regime(
    fleet: &mut FleetRuntime,
    tenants: &mut [TenantSetup],
    steps: usize,
) -> Result<RegimeOutcome, Box<dyn std::error::Error>> {
    let mut obs: Vec<_> = tenants
        .iter_mut()
        .enumerate()
        .map(|(i, t)| t.env.reset(100 + i as u64))
        .collect();
    let mut digest = Fnv64::new();
    let mut serve_time = Duration::ZERO;
    let mut decisions: u64 = 0;
    for _ in 0..steps {
        let views: Vec<&[_]> = obs.iter().map(|o| o.as_slice()).collect();
        let t0 = Instant::now();
        let out = fleet.step(&views)?;
        serve_time += t0.elapsed();
        digest.word(out.digest());
        for (i, (ts, tenant)) in out.tenants.iter().zip(tenants.iter_mut()).enumerate() {
            decisions += ts.actions.len() as u64;
            let step = tenant.env.step(&ts.actions)?;
            obs[i] = if step.done {
                tenant.env.reset(200 + i as u64)
            } else {
                step.obs
            };
        }
    }

    let mut rows = Vec::new();
    let mut human = Vec::new();
    let mut recoveries = 0;
    let mut final_states = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let stats = fleet.tenant_stats(t);
        let hist = fleet.tenant_step_latency(t);
        let tel = fleet.tenant_telemetry(t);
        let state = fleet.tenant_state(t);
        let q_steps = stats.state_steps[TenantState::Quarantined.index()];
        let quarantine_rate = q_steps as f64 / stats.steps.max(1) as f64;
        let standby_rate = stats.standby_steps as f64 / stats.steps.max(1) as f64;
        let recovery_ticks = (stats.recoveries > 0)
            .then(|| stats.recovery_ticks_total as f64 / stats.recoveries as f64);
        recoveries += stats.recoveries;
        final_states.push(state);
        human.push(format!(
            "{:<18} {:<6} {:>9.1} {:>9.1} {:>9.1} {:>8.1}% {:>8.1}% {:>7} {:>6} {:>5} {:>11}",
            tenant.name,
            tenant.grid,
            hist.percentile_us(0.50),
            hist.percentile_us(0.95),
            hist.percentile_us(0.99),
            tel.fallback_rate() * 100.0,
            quarantine_rate * 100.0,
            stats.panics,
            stats.breaker_trips,
            stats.recoveries,
            format!("{state:?}"),
        ));
        rows.push(Json::obj([
            ("name", Json::str(&tenant.name)),
            ("grid", Json::str(&tenant.grid)),
            ("state", Json::str(format!("{state:?}"))),
            ("p50_us", Json::num(hist.percentile_us(0.50))),
            ("p95_us", Json::num(hist.percentile_us(0.95))),
            ("p99_us", Json::num(hist.percentile_us(0.99))),
            ("fallback_rate", Json::num(tel.fallback_rate())),
            ("standby_rate", Json::num(standby_rate)),
            ("quarantine_rate", Json::num(quarantine_rate)),
            ("panics", Json::num(stats.panics as f64)),
            ("breaker_trips", Json::num(stats.breaker_trips as f64)),
            ("breaker_closes", Json::num(stats.breaker_closes as f64)),
            ("quarantines", Json::num(stats.quarantines as f64)),
            ("recoveries", Json::num(stats.recoveries as f64)),
            ("reload_attempts", Json::num(stats.reload_attempts as f64)),
            (
                "recovery_latency_ticks",
                recovery_ticks.map_or(Json::Null, Json::num),
            ),
        ]));
    }
    Ok(RegimeOutcome {
        digest: digest.finish(),
        decisions_per_sec: decisions as f64 / serve_time.as_secs_f64().max(1e-9),
        rows,
        human,
        recoveries,
        final_states,
    })
}

fn print_regime(regime: &str, out: &RegimeOutcome) {
    println!(
        "\n[{regime}] aggregate {:.0} decisions/s",
        out.decisions_per_sec
    );
    println!(
        "{:<18} {:<6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>5} {:>11}",
        "tenant",
        "grid",
        "p50 us",
        "p95 us",
        "p99 us",
        "fallback",
        "quarant",
        "panics",
        "trips",
        "recov",
        "state"
    );
    for line in &out.human {
        println!("{line}");
    }
}

fn regime_json(regime: &str, out: &RegimeOutcome) -> Json {
    Json::obj([
        ("regime", Json::str(regime)),
        ("decisions_per_sec", Json::num(out.decisions_per_sec)),
        ("replay_digest", Json::str(format!("{:016x}", out.digest))),
        ("tenants", Json::Arr(out.rows.clone())),
    ])
}

/// The infra-chaos schedule: tenant 0 panics over an early window but
/// reloads from its valid checkpoint (a guaranteed full recovery
/// cycle); tenant 1 panics once and then every reload is corrupted
/// (budget exhaustion, parked in quarantine); everyone sees latency
/// spikes; the last tenant rides a reload storm.
fn infra_plan(n: usize) -> InfraChaosPlan {
    InfraChaosPlan::new()
        .tenant_panic(Window::new(0, 3), TenantSel::One(0), 1.0)
        .tenant_panic(Window::new(0, 1), TenantSel::One(1 % n), 1.0)
        .reload_corrupt(Window::always(), TenantSel::One(1 % n), 1.0)
        .latency_spike(Window::always(), TenantSel::All, 400, 0.2)
        .reload_storm(Window::always(), TenantSel::One(n - 1), 50)
}

fn run(steps: usize, args: &BenchArgs) -> Result<(), Box<dyn std::error::Error>> {
    let n = if args.smoke { 3 } else { 6 };
    let world = resolve_scenario(args, SEED)?;
    let mut tenants = build_tenants(n, world.as_ref())?;
    let fleet_label = match &world {
        Some(c) => format!("{} ({})", c.scenario.name, c.fingerprint_hex()),
        None => "alternating 2x2/3x3".into(),
    };
    println!(
        "fleet bench: {n} tenants ({fleet_label}), {steps} fleet steps per regime, seed {SEED}"
    );

    // Regime 1: clean. No faults, no deadline — supervision at rest.
    let mut fleet = FleetRuntime::new(
        FleetConfig {
            seed: SEED,
            ..Default::default()
        },
        specs_for(&tenants, ServeConfig::default()),
    );
    let clean = run_regime(&mut fleet, &mut tenants, steps)?;
    print_regime("clean", &clean);
    assert!(
        clean.recoveries == 0
            && clean
                .final_states
                .iter()
                .all(|&s| s == TenantState::Healthy),
        "clean regime must stay healthy"
    );

    // Regime 2: overload. Tight deadline + latency spikes — the
    // breaker trips on real deadline overruns and closes again after
    // probation.
    let overload_cfg = ServeConfig {
        deadline: Some(Duration::from_micros(250)),
        ..Default::default()
    };
    let mut fleet = FleetRuntime::new(
        FleetConfig {
            seed: SEED,
            ..Default::default()
        },
        specs_for(&tenants, overload_cfg),
    );
    fleet.set_infra_chaos(InfraChaosPlan::new().latency_spike(
        Window::always(),
        TenantSel::All,
        2_000,
        0.7,
    ))?;
    let overload = run_regime(&mut fleet, &mut tenants, steps)?;
    print_regime("overload", &overload);

    // Regime 3: infra chaos, twice — the second run must replay the
    // first bit-for-bit.
    let infra_supervisor = SupervisorConfig {
        backoff_base: 1,
        backoff_max: 2,
        ..Default::default()
    };
    // The flight recorder rides along (observation-only: the replay
    // digest below proves recording never perturbs decisions) so the
    // live exposition carries real flight health.
    let mut outs = Vec::new();
    let mut exposition = None;
    for _ in 0..2 {
        let mut fleet = FleetRuntime::new(
            FleetConfig {
                supervisor: infra_supervisor,
                seed: SEED,
                flight: Some(FlightConfig::default()),
                ..Default::default()
            },
            specs_for(&tenants, ServeConfig::default()),
        );
        fleet.set_infra_chaos(infra_plan(n))?;
        outs.push(run_regime(&mut fleet, &mut tenants, steps)?);
        exposition = Some(fleet.exposition());
    }
    let infra_replay = outs.pop().expect("second infra run");
    let infra = outs.pop().expect("first infra run");
    print_regime("infra-chaos", &infra);
    assert_eq!(
        infra.digest, infra_replay.digest,
        "infra-chaos regime must replay bit-for-bit under the same seed and plan"
    );
    assert!(
        infra.recoveries >= 1,
        "at least one quarantine -> reload -> recovery cycle must complete"
    );
    assert_eq!(
        infra.final_states[1 % n],
        TenantState::Quarantined,
        "the permanently-corrupt tenant must stay quarantined"
    );
    println!(
        "\ninfra-chaos replay digest {:016x} reproduced; {} recovery cycle(s) completed; \
         no process abort",
        infra.digest, infra.recoveries
    );

    let report = Json::obj([
        ("bench", Json::str("fleet")),
        ("tenants", Json::num(n as f64)),
        ("steps_per_regime", Json::num(steps as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("seed", Json::num(SEED as f64)),
        (
            "regimes",
            Json::Arr(vec![
                regime_json("clean", &clean),
                regime_json("overload", &overload),
                regime_json("infra_chaos", &infra),
            ]),
        ),
        ("infra_replay_digest_match", Json::Bool(true)),
        ("infra_recovery_cycles", Json::num(infra.recoveries as f64)),
        (
            "flight",
            exposition
                .as_ref()
                .map(|e| e.summary.clone())
                .unwrap_or(Json::Null),
        ),
    ]);
    args.write_report_if_json("BENCH_fleet.json", &report)?;
    if args.json {
        if let Some(e) = &exposition {
            write_prometheus("BENCH_fleet.prom", &e.prometheus)?;
            println!("wrote BENCH_fleet.prom");
        }
    }

    for t in &tenants {
        std::fs::remove_file(&t.checkpoint).ok();
    }
    Ok(())
}
