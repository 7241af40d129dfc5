//! Drivers that regenerate every table and figure of the paper's
//! evaluation (§VI). Each driver returns structured results and can
//! render a paper-style text table/series; the `table2`, `fig7`, …
//! binaries are thin wrappers around these functions.
//!
//! Scale: the paper trains 1000 SUMO episodes; these drivers default to
//! scaled-down runs (see [`ExperimentScale`]) so each finishes in
//! minutes on a laptop. EXPERIMENTS.md records the scale used and how
//! the *shape* of each result compares with the paper.

use std::fmt::Write as _;

use pairuplight::TrainError;
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{self, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, Scenario, SimConfig, SimError, TscEnv};

use crate::eval::{evaluate, EvalConfig};
use crate::models::{train_model, CurvePoint, ModelKind, TrainSetup};

/// Effort/size knobs for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentScale {
    /// Training episodes per model.
    pub episodes: usize,
    /// Episode horizon (s) used during training.
    pub train_horizon: u32,
    /// Evaluation horizon (s).
    pub eval_horizon: u32,
    /// Drain cap (s) for travel-time accounting.
    pub drain_cap: u32,
    /// Network width.
    pub hidden: usize,
    /// Base seed.
    pub seed: u64,
    /// Grid size (the paper's main experiment is 6×6).
    pub grid: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            episodes: 60,
            train_horizon: 2700,
            eval_horizon: 2700,
            drain_cap: 5400,
            hidden: 32,
            seed: 7,
            grid: 6,
        }
    }
}

impl ExperimentScale {
    /// Parses `--episodes N --horizon S --eval-horizon S --hidden H
    /// --seed S --grid G` style flags from an iterator of CLI args
    /// (unknown flags are ignored so binaries can add their own).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut scale = ExperimentScale::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut set = |target: &mut dyn FnMut(u64)| {
                if let Some(v) = it.next().and_then(|s| s.parse::<u64>().ok()) {
                    target(v);
                }
            };
            match flag.as_str() {
                "--episodes" => set(&mut |v| scale.episodes = v as usize),
                "--horizon" => set(&mut |v| scale.train_horizon = v as u32),
                "--eval-horizon" => set(&mut |v| scale.eval_horizon = v as u32),
                "--drain-cap" => set(&mut |v| scale.drain_cap = v as u32),
                "--hidden" => set(&mut |v| scale.hidden = v as usize),
                "--seed" => set(&mut |v| scale.seed = v),
                "--grid" => set(&mut |v| scale.grid = v as usize),
                _ => {}
            }
        }
        scale
    }

    fn setup(&self) -> TrainSetup {
        TrainSetup {
            hidden: self.hidden,
            lstm_hidden: self.hidden,
            episodes: self.episodes,
            ppo_epochs: 2,
            seed: self.seed,
            heterogeneous: false,
        }
    }
}

fn grid(scale: &ExperimentScale) -> Result<Grid, SimError> {
    Grid::build(GridConfig {
        cols: scale.grid,
        rows: scale.grid,
        spacing: 200.0,
    })
}

fn training_env(scenario: Scenario, scale: &ExperimentScale) -> Result<TscEnv, SimError> {
    TscEnv::new(
        scenario,
        SimConfig::default(),
        EnvConfig {
            decision_interval: 5,
            episode_horizon: scale.train_horizon,
        },
        scale.seed,
    )
}

fn progress(kind: ModelKind) -> impl FnMut(&CurvePoint) {
    move |p: &CurvePoint| {
        if p.episode.is_multiple_of(5) {
            eprintln!(
                "  [{}] episode {:>4}: wait {:>8.2}s travel {:>9.2}s pl {:>7.3} vl {:>7.3} H {:>5.2}",
                kind.name(),
                p.episode,
                p.avg_waiting_time,
                p.avg_travel_time,
                p.policy_loss,
                p.value_loss,
                p.entropy
            );
        }
    }
}

// ---------------------------------------------------------------------
// Table II / Table III
// ---------------------------------------------------------------------

/// One model's row of Table II.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TravelTimeRow {
    /// Model name.
    pub model: String,
    /// Average travel time per pattern (s).
    pub per_pattern: Vec<f64>,
}

/// Result of the Table II experiment.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TravelTimeTable {
    /// Pattern names (columns).
    pub patterns: Vec<String>,
    /// Model rows.
    pub rows: Vec<TravelTimeRow>,
}

impl TravelTimeTable {
    /// Renders a paper-style aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<24}", "Model");
        for p in &self.patterns {
            let _ = write!(out, "{p:>12}");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "{:<24}", row.model);
            for v in &row.per_pattern {
                let _ = write!(out, "{v:>12.2}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders CSV for downstream plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("model");
        for p in &self.patterns {
            let _ = write!(out, ",{p}");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "{}", row.model);
            for v in &row.per_pattern {
                let _ = write!(out, ",{v:.2}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Table II: train every model on Pattern 1, evaluate average travel
/// time on Patterns 1–5.
///
/// # Errors
///
/// Propagates scenario/simulation failures.
pub fn table2(scale: &ExperimentScale) -> Result<TravelTimeTable, TrainError> {
    let grid = grid(scale)?;
    let pattern_cfg = PatternConfig::default();
    let train_scenario = patterns::grid_scenario(&grid, FlowPattern::One, &pattern_cfg)?;
    let eval_cfg = EvalConfig {
        horizon: scale.eval_horizon,
        drain_cap: scale.drain_cap,
        seed: scale.seed + 1000,
    };
    let mut rows = Vec::new();
    for kind in ModelKind::TABLE2 {
        eprintln!("training {} on Pattern 1 …", kind.name());
        let mut env = training_env(train_scenario.clone(), scale)?;
        let mut trained = train_model(kind, &mut env, &scale.setup(), progress(kind))?;
        let mut per_pattern = Vec::new();
        for pattern in FlowPattern::ALL {
            let scenario = patterns::grid_scenario(&grid, pattern, &pattern_cfg)?;
            let r = evaluate(
                &mut *trained.controller,
                &scenario,
                SimConfig::default(),
                &eval_cfg,
            )?;
            eprintln!(
                "  eval {}: travel {:.2}s (completion {:.0}%)",
                pattern.name(),
                r.avg_travel_time,
                100.0 * r.completion_rate
            );
            per_pattern.push(r.avg_travel_time);
        }
        rows.push(TravelTimeRow {
            model: kind.name(),
            per_pattern,
        });
    }
    Ok(TravelTimeTable {
        patterns: FlowPattern::ALL.iter().map(|p| p.name().into()).collect(),
        rows,
    })
}

/// Table III: train *and* evaluate every model on the light uniform
/// Pattern 5.
///
/// # Errors
///
/// Propagates scenario/simulation failures.
pub fn table3(scale: &ExperimentScale) -> Result<TravelTimeTable, TrainError> {
    let grid = grid(scale)?;
    let pattern_cfg = PatternConfig::default();
    let scenario = patterns::grid_scenario(&grid, FlowPattern::Five, &pattern_cfg)?;
    let eval_cfg = EvalConfig {
        horizon: scale.eval_horizon,
        drain_cap: scale.drain_cap,
        seed: scale.seed + 1000,
    };
    let mut rows = Vec::new();
    for kind in ModelKind::TABLE2 {
        eprintln!("training {} on Pattern 5 …", kind.name());
        let mut env = training_env(scenario.clone(), scale)?;
        let mut trained = train_model(kind, &mut env, &scale.setup(), progress(kind))?;
        let r = evaluate(
            &mut *trained.controller,
            &scenario,
            SimConfig::default(),
            &eval_cfg,
        )?;
        eprintln!("  eval Pattern 5: travel {:.2}s", r.avg_travel_time);
        rows.push(TravelTimeRow {
            model: kind.name(),
            per_pattern: vec![r.avg_travel_time],
        });
    }
    Ok(TravelTimeTable {
        patterns: vec!["Pattern 5".into()],
        rows,
    })
}

// ---------------------------------------------------------------------
// Training-curve figures (Figs. 7, 8, 11)
// ---------------------------------------------------------------------

/// One model's training curve.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Curve {
    /// Model name.
    pub model: String,
    /// Per-episode points.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// Minimum waiting time reached and its episode (the paper quotes
    /// "best performance occurs at episode 980 with 3.13 s").
    pub fn best(&self) -> Option<(usize, f64)> {
        self.points
            .iter()
            .map(|p| (p.episode, p.avg_waiting_time))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Waiting time of the final episode.
    pub fn final_wait(&self) -> Option<f64> {
        self.points.last().map(|p| p.avg_waiting_time)
    }
}

/// Renders several curves as CSV (`episode,model1,model2,…`).
pub fn curves_to_csv(curves: &[Curve]) -> String {
    let mut out = String::from("episode");
    for c in curves {
        let _ = write!(out, ",{}", c.model);
    }
    let _ = writeln!(out);
    let len = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for i in 0..len {
        let _ = write!(out, "{i}");
        for c in curves {
            match c.points.get(i) {
                Some(p) => {
                    let _ = write!(out, ",{:.3}", p.avg_waiting_time);
                }
                None => out.push(','),
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Trains each requested model on the grid Pattern 1 environment and
/// records its training curve (Figs. 7, 8, 11 all reduce to this with
/// different model lists).
///
/// # Errors
///
/// Propagates scenario/simulation failures.
pub fn training_curves(
    scale: &ExperimentScale,
    kinds: &[ModelKind],
) -> Result<Vec<Curve>, TrainError> {
    let grid = grid(scale)?;
    let scenario = patterns::grid_scenario(&grid, FlowPattern::One, &PatternConfig::default())?;
    let mut curves = Vec::new();
    for &kind in kinds {
        eprintln!("training {} …", kind.name());
        let mut env = training_env(scenario.clone(), scale)?;
        let trained = train_model(kind, &mut env, &scale.setup(), progress(kind))?;
        curves.push(Curve {
            model: kind.name(),
            points: trained.curve,
        });
    }
    Ok(curves)
}

/// Fig. 7 reference lines: FixedTime and the untrained-policy level are
/// usually drawn as horizontal references. Returns the FixedTime
/// episode-average waiting time on the same workload.
///
/// # Errors
///
/// Propagates scenario/simulation failures.
pub fn fixed_time_reference(scale: &ExperimentScale) -> Result<f64, SimError> {
    let grid = grid(scale)?;
    let scenario = patterns::grid_scenario(&grid, FlowPattern::One, &PatternConfig::default())?;
    let mut env = training_env(scenario, scale)?;
    let mut ctl = tsc_baselines::FixedTimeController::default();
    let stats = env.run_episode(&mut ctl, scale.seed)?;
    Ok(stats.avg_waiting_time)
}

// ---------------------------------------------------------------------
// Fig. 10: Monaco heterogeneous environment
// ---------------------------------------------------------------------

/// Fig. 10: training curves on the Monaco-style heterogeneous network
/// (PairUpLight without parameter sharing vs MA2C vs FixedTime
/// reference).
///
/// # Errors
///
/// Propagates scenario/simulation failures.
pub fn monaco_training(scale: &ExperimentScale) -> Result<(Vec<Curve>, f64), TrainError> {
    let scenario = tsc_scenario::compile(&tsc_scenario::monaco_spec(scale.seed))?.scenario;
    let mut setup = scale.setup();
    setup.heterogeneous = true; // §VI-D: parameter sharing infeasible
    let mut curves = Vec::new();
    for kind in [ModelKind::PairUpLight, ModelKind::Ma2c] {
        eprintln!("training {} on Monaco …", kind.name());
        let mut env = training_env(scenario.clone(), scale)?;
        let trained = train_model(kind, &mut env, &setup, progress(kind))?;
        curves.push(Curve {
            model: kind.name(),
            points: trained.curve,
        });
    }
    let mut env = training_env(scenario, scale)?;
    let mut ctl = tsc_baselines::FixedTimeController::default();
    let fixed = env.run_episode(&mut ctl, scale.seed)?.avg_waiting_time;
    Ok((curves, fixed))
}

// ---------------------------------------------------------------------
// Table IV: communication overhead
// ---------------------------------------------------------------------

/// One row of the communication-overhead table.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OverheadRow {
    /// Model name.
    pub model: String,
    /// What crosses the wire each decision step.
    pub information: String,
    /// Bits received per intersection per decision step in *this
    /// implementation*.
    pub bits: usize,
    /// Bits the paper reports for its implementation.
    pub paper_bits: usize,
}

/// Table IV: per-step communication overhead, computed from the actual
/// inputs each implemented model pulls from other intersections
/// (32-bit floats), alongside the paper's reported numbers.
pub fn table4(local_dim: usize, max_phases: usize) -> Vec<OverheadRow> {
    vec![
        OverheadRow {
            model: "MA2C".into(),
            information: "neighbor observations + policy fingerprints from 4 neighbors".into(),
            bits: 4 * (local_dim + max_phases) * 32,
            paper_bits: 1280,
        },
        OverheadRow {
            model: "CoLight".into(),
            information: "link-level observations from 4 neighbors".into(),
            bits: 4 * local_dim * 32,
            paper_bits: 1536,
        },
        OverheadRow {
            model: "PairUpLight".into(),
            information: "one 32-bit message from one of its 4 neighbors".into(),
            bits: pairuplight::message::bits_per_step(1),
            paper_bits: 32,
        },
    ]
}

/// Renders Table IV.
pub fn render_table4(rows: &[OverheadRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14}{:>18}{:>14}  Information from other intersections",
        "Model", "bits (this impl)", "bits (paper)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14}{:>18}{:>14}  {}",
            r.model, r.bits, r.paper_bits, r.information
        );
    }
    out
}

/// Writes `contents` under `results/<name>` (creating the directory),
/// returning the path written.
///
/// # Errors
///
/// Returns `std::io::Error` on filesystem failures.
pub fn write_result(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_flags_and_ignores_unknown() {
        let scale = ExperimentScale::from_args(
            ["--episodes", "5", "--wat", "--hidden", "16", "--grid", "3"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(scale.episodes, 5);
        assert_eq!(scale.hidden, 16);
        assert_eq!(scale.grid, 3);
        assert_eq!(scale.seed, ExperimentScale::default().seed);
    }

    #[test]
    fn table4_shape_matches_paper_ordering() {
        let rows = table4(32, 4);
        assert_eq!(rows.len(), 3);
        // PairUpLight must be dramatically cheaper than both baselines,
        // in our implementation and in the paper.
        let p = rows.iter().find(|r| r.model == "PairUpLight").unwrap();
        for r in &rows {
            if r.model != "PairUpLight" {
                assert!(
                    r.bits >= 20 * p.bits,
                    "{}: {} vs {}",
                    r.model,
                    r.bits,
                    p.bits
                );
                assert!(r.paper_bits > p.paper_bits);
            }
        }
        assert_eq!(p.bits, 32);
    }

    #[test]
    fn travel_time_table_renders() {
        let t = TravelTimeTable {
            patterns: vec!["Pattern 1".into()],
            rows: vec![TravelTimeRow {
                model: "Fixedtime".into(),
                per_pattern: vec![123.45],
            }],
        };
        let s = t.render();
        assert!(s.contains("Fixedtime"));
        assert!(s.contains("123.45"));
        assert!(t.to_csv().contains("Fixedtime,123.45"));
    }

    #[test]
    fn curves_csv_is_rectangular() {
        let curves = vec![
            Curve {
                model: "A".into(),
                points: vec![CurvePoint {
                    episode: 0,
                    avg_waiting_time: 1.0,
                    avg_travel_time: 2.0,
                    total_reward: -1.0,
                    policy_loss: 0.0,
                    value_loss: 0.0,
                    entropy: 0.0,
                }],
            },
            Curve {
                model: "B".into(),
                points: vec![],
            },
        ];
        let csv = curves_to_csv(&curves);
        assert!(csv.starts_with("episode,A,B"));
        assert!(csv.lines().count() == 2);
    }

    #[test]
    fn curve_best_finds_minimum() {
        let c = Curve {
            model: "A".into(),
            points: vec![
                CurvePoint {
                    episode: 0,
                    avg_waiting_time: 5.0,
                    avg_travel_time: 0.0,
                    total_reward: 0.0,
                    policy_loss: 0.0,
                    value_loss: 0.0,
                    entropy: 0.0,
                },
                CurvePoint {
                    episode: 1,
                    avg_waiting_time: 2.0,
                    avg_travel_time: 0.0,
                    total_reward: 0.0,
                    policy_loss: 0.0,
                    value_loss: 0.0,
                    entropy: 0.0,
                },
                CurvePoint {
                    episode: 2,
                    avg_waiting_time: 3.0,
                    avg_travel_time: 0.0,
                    total_reward: 0.0,
                    policy_loss: 0.0,
                    value_loss: 0.0,
                    entropy: 0.0,
                },
            ],
        };
        assert_eq!(c.best(), Some((1, 2.0)));
        assert_eq!(c.final_wait(), Some(3.0));
    }
}
