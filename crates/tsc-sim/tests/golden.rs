//! Golden detector/reward trace fixtures.
//!
//! One fixture per [`FlowPattern`], generated from the **legacy** tick
//! stepper (the oracle) and asserted *exactly* — bit-for-bit on every
//! float — against the event core. Unlike the lockstep harness in
//! `tests/parity.rs`, these pin the observable contract against files
//! checked into the repo, so a regression in *either* engine (or an
//! accidental semantic change that happens to keep the two engines in
//! agreement with each other) is caught.
//!
//! Each trace line covers one simulation second:
//!
//! ```text
//! <t> s=<spawned> i=<inserted> f=<finished> b=<backlog> a=<active> \
//!     d=<detector digest> w=<avg-wait f64 bits> r=<reward f64 bits>,...
//! ```
//!
//! The detector digest folds the exact bit patterns of every
//! [`LinkObs`] field, outgoing counts and phase indices of every
//! intersection, so any detector-level divergence flips it.
//!
//! Regenerate after an *intentional* contract change with:
//!
//! ```text
//! cargo test -p tsc-sim --test golden -- --ignored regenerate_golden_traces
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{IntersectionObs, Scenario, SimConfig, Simulation};

const HORIZON: u32 = 300;
const PHASE_PERIOD: u32 = 11;

const CASES: [(&str, FlowPattern, u64); 5] = [
    ("pattern_one", FlowPattern::One, 1001),
    ("pattern_two", FlowPattern::Two, 1002),
    ("pattern_three", FlowPattern::Three, 1003),
    ("pattern_four", FlowPattern::Four, 1004),
    ("pattern_five", FlowPattern::Five, 1005),
];

fn scenario(pattern: FlowPattern) -> Scenario {
    let grid = Grid::build(GridConfig {
        cols: 3,
        rows: 3,
        spacing: 200.0,
    })
    .unwrap();
    let f = flows(&grid, pattern, &PatternConfig::default()).unwrap();
    grid.scenario("golden", f).unwrap()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.golden"))
}

/// Order-sensitive fold of every observable detector bit.
fn detector_digest(obs: &[IntersectionObs]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for o in obs {
        mix(o.node.0 as u64);
        mix(o.current_phase as u64);
        mix(o.num_phases as u64);
        for l in &o.incoming {
            mix(l.link.0 as u64);
            mix(l.count.to_bits());
            mix(l.halting.to_bits());
            for m in l.halting_by_movement {
                mix(m.to_bits());
            }
            mix(l.head_wait.to_bits());
        }
        for (&c, &l) in o.outgoing_counts.iter().zip(&o.outgoing_links) {
            mix(c.to_bits());
            mix(l.0 as u64);
        }
    }
    h
}

/// Runs `sim` for [`HORIZON`] seconds under the deterministic rotating
/// phase schedule and renders the golden trace text.
fn trace(sim: &mut Simulation, scenario: &Scenario) -> String {
    let agents = scenario.agents();
    let mut out = String::new();
    for t in 0..HORIZON {
        if t % PHASE_PERIOD == 0 {
            for (i, &node) in agents.iter().enumerate() {
                let phase =
                    ((t / PHASE_PERIOD) as usize + i) % scenario.signal_plans[i].num_phases();
                sim.request_phase(node, phase).unwrap();
            }
        }
        sim.step().unwrap();
        let obs = sim.observe_all();
        let m = sim.metrics();
        write!(
            out,
            "{t} s={} i={} f={} b={} a={} d={:016x} w={:016x} r=",
            m.spawned(),
            m.inserted(),
            m.finished(),
            sim.backlog_vehicles(),
            sim.active_vehicles(),
            detector_digest(&obs),
            m.avg_waiting_time().to_bits(),
        )
        .unwrap();
        for (i, o) in obs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{:016x}", o.reward().to_bits()).unwrap();
        }
        out.push('\n');
    }
    out
}

fn assert_matches_fixture(name: &str, got: &str, engine: &str) {
    let path = fixture_path(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with the \
             regenerate_golden_traces test",
            path.display()
        )
    });
    if got != want {
        for (ln, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g, w,
                "{engine} diverged from {name} golden trace at line {ln}"
            );
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{engine} trace length differs from {name} golden trace"
        );
        panic!("{engine} trace differs from {name} golden trace");
    }
}

/// The event core must reproduce the legacy-generated traces exactly.
#[test]
fn event_core_matches_golden_traces() {
    for (name, pattern, seed) in CASES {
        let scn = scenario(pattern);
        let mut sim = Simulation::new(&scn, SimConfig::default(), seed).unwrap();
        assert!(sim.is_event_core());
        let got = trace(&mut sim, &scn);
        assert_matches_fixture(name, &got, "event core");
    }
}

/// The oracle itself must still match what it generated — guards
/// against accidental semantic drift in the legacy stepper.
#[test]
fn legacy_oracle_matches_golden_traces() {
    for (name, pattern, seed) in CASES {
        let scn = scenario(pattern);
        let mut sim = Simulation::new_legacy(&scn, SimConfig::default(), seed).unwrap();
        assert!(!sim.is_event_core());
        let got = trace(&mut sim, &scn);
        assert_matches_fixture(name, &got, "legacy oracle");
    }
}

/// Rewrites every fixture from the legacy oracle. Ignored by default:
/// run explicitly after an intentional observable-contract change, and
/// review the diff.
#[test]
#[ignore = "regenerates fixtures; run explicitly after intentional contract changes"]
fn regenerate_golden_traces() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, pattern, seed) in CASES {
        let scn = scenario(pattern);
        let mut sim = Simulation::new_legacy(&scn, SimConfig::default(), seed).unwrap();
        let text = trace(&mut sim, &scn);
        std::fs::write(fixture_path(name), text).unwrap();
    }
}
