//! Sensor-degradation robustness study (extension; the paper's claims
//! center on "robustness, resilience and overall performance").
//! Trains PairUpLight on clean detectors, then evaluates it — and the
//! FixedTime reference — under increasing detector dropout and noise,
//! injected through the chaos engine (`ChaosPlan`) rather than
//! detector-config knobs so the schedule, seeding and semantics are
//! shared with every other fault experiment. FixedTime ignores
//! detectors entirely, so it is the natural degradation-free floor; a
//! robust learned policy should stay below it well past nominal
//! conditions.
//!
//! Accepts the usual `ExperimentScale` flags plus `--json`, which also
//! writes `BENCH_robustness.json` at the repository root, and
//! `--scenario <name-or-path>`, which trains and evaluates on a
//! compiled world instead of the default grid (the report is stamped
//! with the world's structural fingerprint either way).

use tsc_baselines::FixedTimeController;
use tsc_bench::cli::BenchArgs;
use tsc_bench::eval::{evaluate_with_chaos, EvalConfig};
use tsc_bench::experiments::{self, ExperimentScale};
use tsc_bench::models::{train_model, ModelKind};
use tsc_bench::report::Json;
use tsc_bench::world::resolve_scenario;
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{self, FlowPattern, PatternConfig};
use tsc_sim::{ChaosPlan, EnvConfig, LinkSel, SimConfig, TscEnv, Window};

/// Always-on sensing faults at the given levels; `(0, 0)` is the
/// empty plan (bit-identical to a clean evaluation).
fn degradation_plan(dropout: f64, noise: f64) -> ChaosPlan {
    let mut plan = ChaosPlan::default();
    if dropout > 0.0 {
        plan = plan.sensor_dropout(Window::always(), LinkSel::All, dropout);
    }
    if noise > 0.0 {
        plan = plan.sensor_noise(Window::always(), LinkSel::All, noise);
    }
    plan
}

fn main() {
    let args = BenchArgs::parse();
    let scale = ExperimentScale::from_args(std::env::args().skip(1));
    eprintln!("robustness study at scale {scale:?}");
    let run = || -> Result<(String, String, Vec<Json>), pairuplight::TrainError> {
        let (label, scenario) = match resolve_scenario(&args, scale.seed)? {
            Some(compiled) => {
                let label = format!(
                    "{} ({})",
                    compiled.scenario.name,
                    compiled.fingerprint_hex()
                );
                (label, compiled.scenario)
            }
            None => {
                let grid = Grid::build(GridConfig {
                    cols: scale.grid,
                    rows: scale.grid,
                    spacing: 200.0,
                })?;
                let scenario =
                    patterns::grid_scenario(&grid, FlowPattern::One, &PatternConfig::default())?;
                (format!("{0}x{0}", scale.grid), scenario)
            }
        };
        eprintln!("world: {label}");
        let mut env = TscEnv::new(
            scenario.clone(),
            SimConfig::default(),
            EnvConfig {
                decision_interval: 5,
                episode_horizon: scale.train_horizon,
            },
            scale.seed,
        )?;
        let setup = tsc_bench::TrainSetup {
            hidden: scale.hidden,
            lstm_hidden: scale.hidden,
            episodes: scale.episodes,
            ppo_epochs: 2,
            seed: scale.seed,
            heterogeneous: false,
        };
        eprintln!("training PairUpLight on clean sensors …");
        let mut trained = train_model(ModelKind::PairUpLight, &mut env, &setup, |p| {
            if p.episode % 10 == 0 {
                eprintln!(
                    "  episode {:>3}: wait {:>7.2}s",
                    p.episode, p.avg_waiting_time
                );
            }
        })?;
        let mut csv = String::from("dropout,noise,pairuplight_travel,fixedtime_travel\n");
        let mut rows = Vec::new();
        println!("\nSENSOR-DEGRADATION ROBUSTNESS (avg travel time, s)");
        println!(
            "{:<10}{:<8}{:>14}{:>14}",
            "dropout", "noise", "PairUpLight", "FixedTime"
        );
        for (dropout, noise) in [
            (0.0, 0.0),
            (0.1, 0.0),
            (0.3, 0.0),
            (0.0, 0.3),
            (0.3, 0.3),
            (0.6, 0.3),
        ] {
            let plan = degradation_plan(dropout, noise);
            let eval_cfg = EvalConfig {
                horizon: scale.eval_horizon,
                drain_cap: scale.drain_cap,
                seed: scale.seed + 500,
            };
            let rl = evaluate_with_chaos(
                &mut *trained.controller,
                &scenario,
                SimConfig::default(),
                &plan,
                &eval_cfg,
            )?;
            let mut fixed = FixedTimeController::default();
            let ft = evaluate_with_chaos(
                &mut fixed,
                &scenario,
                SimConfig::default(),
                &plan,
                &eval_cfg,
            )?;
            println!(
                "{:<10.2}{:<8.2}{:>14.2}{:>14.2}",
                dropout, noise, rl.avg_travel_time, ft.avg_travel_time
            );
            csv.push_str(&format!(
                "{dropout},{noise},{:.2},{:.2}\n",
                rl.avg_travel_time, ft.avg_travel_time
            ));
            rows.push(Json::obj([
                ("dropout", Json::num(dropout)),
                ("noise", Json::num(noise)),
                ("pairuplight_travel_s", Json::num(rl.avg_travel_time)),
                ("fixedtime_travel_s", Json::num(ft.avg_travel_time)),
                ("pairuplight_completion", Json::num(rl.completion_rate)),
            ]));
        }
        Ok((label, csv, rows))
    };
    match run() {
        Ok((label, csv, rows)) => {
            match experiments::write_result("robustness.csv", &csv) {
                Ok(p) => eprintln!("wrote {}", p.display()),
                Err(e) => eprintln!("could not write results: {e}"),
            }
            let report = Json::obj([
                ("bench", Json::str("robustness")),
                ("grid", Json::str(label)),
                ("episodes", Json::num(scale.episodes as f64)),
                ("seed", Json::num(scale.seed as f64)),
                ("rows", Json::Arr(rows)),
            ]);
            if let Err(e) = args.write_report_if_json("BENCH_robustness.json", &report) {
                eprintln!("could not write report: {e}");
            }
        }
        Err(e) => {
            eprintln!("robustness failed: {e}");
            std::process::exit(1);
        }
    }
}
