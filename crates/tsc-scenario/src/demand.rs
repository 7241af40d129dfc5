//! Demand programs: spec → OD flows.
//!
//! Each [`DemandProgram`] lowers to a list of [`OdFlow`]s on the
//! compiled [`World`]. Determinism contract: programs draw OD pairs by
//! *hashing* `(spec seed, program index, pair index, attempt)` rather
//! than consuming the shared RNG stream, so adding a program to a spec
//! never re-randomizes the programs before it, and the topology stage's
//! draws are unaffected. The one exception is
//! [`DemandProgram::Conflicts`], which threads the compile-wide RNG in
//! the legacy Monaco order (that is what makes the Monaco port
//! bit-identical to the retired builder).
//!
//! Sampled pairs are route-checked (up to [`ATTEMPTS`] redraws, then
//! dropped) because irregular city graphs can leave terminal pairs
//! unroutable; pattern flows get the same post-filter.

use rand::rngs::StdRng;
use rand::Rng;

use tsc_sim::det::splitmix64;
use tsc_sim::scenario::patterns::{flows_on, PatternConfig};
use tsc_sim::{shortest_route, FlowProfile, NodeId, OdFlow, SimError};

use crate::spec::DemandProgram;
use crate::topology::World;

/// Free-flow speed (m/s) used for routability checks, matching the
/// simulator's default.
const FREE_SPEED: f64 = 13.89;

/// Redraws per OD pair before giving up on it.
const ATTEMPTS: u64 = 32;

/// Stateless hash of the draw coordinates — the heart of the
/// order-independence guarantee.
fn draw(seed: u64, program: usize, parts: [u64; 3]) -> u64 {
    let mut h = splitmix64(seed ^ 0x7363_656e_6172_696f); // "scenario"
    h = splitmix64(h ^ program as u64);
    for p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

fn pick(nodes: &[NodeId], seed: u64, program: usize, parts: [u64; 3]) -> NodeId {
    nodes[(draw(seed, program, parts) % nodes.len() as u64) as usize]
}

/// Draws a routable OD pair from `origins` × `dests`, or `None` after
/// [`ATTEMPTS`] redraws (possible on sparse city graphs).
fn sample_pair(
    world: &World,
    seed: u64,
    program: usize,
    pair: u64,
    origins: &[NodeId],
    dests: &[NodeId],
) -> Option<(NodeId, NodeId)> {
    for attempt in 0..ATTEMPTS {
        let o = pick(origins, seed, program, [pair, attempt, 0]);
        let d = pick(dests, seed, program, [pair, attempt, 1]);
        if o != d && shortest_route(&world.network, o, d, FREE_SPEED).is_ok() {
            return Some((o, d));
        }
    }
    None
}

fn routable(world: &World, flow: &OdFlow) -> bool {
    shortest_route(&world.network, flow.origin, flow.destination, FREE_SPEED).is_ok()
}

fn invalid(msg: &str) -> SimError {
    SimError::InvalidConfig(msg.into())
}

/// Lowers one demand program to OD flows. `program` is the program's
/// index within the spec (a hash salt); `rng` is the compile-wide
/// stream, consumed only by [`DemandProgram::Conflicts`].
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for degenerate parameters or
/// when a program cannot place any routable flow.
pub fn compile_program(
    prog: &DemandProgram,
    program: usize,
    seed: u64,
    world: &World,
    rng: &mut StdRng,
) -> Result<Vec<OdFlow>, SimError> {
    let terminals = world.boundary.all();
    if terminals.len() < 2 {
        return Err(invalid("demand needs at least two boundary terminals"));
    }
    let flows = match *prog {
        DemandProgram::Pattern {
            pattern,
            peak_rate,
            base_rate,
        } => {
            let cfg = PatternConfig {
                peak_rate,
                base_rate,
                ..PatternConfig::default()
            };
            flows_on(&world.boundary, pattern, &cfg)?
                .into_iter()
                .filter(|f| routable(world, f))
                .collect()
        }
        DemandProgram::Uniform {
            pairs,
            rate,
            start,
            end,
        } => {
            if pairs == 0 || rate <= 0.0 || end <= start || start < 0.0 {
                return Err(invalid(
                    "uniform program needs pairs > 0, rate > 0, end > start",
                ));
            }
            (0..pairs)
                .filter_map(|k| sample_pair(world, seed, program, k as u64, &terminals, &terminals))
                .map(|(o, d)| OdFlow::new(o, d, FlowProfile::constant(rate, start, end)))
                .collect()
        }
        DemandProgram::RushHour {
            pairs,
            peak_rate,
            base_rate,
            onset,
            ramp,
            stagger,
        } => {
            if pairs == 0 || ramp <= 0.0 || stagger < 0.0 || onset < 0.0 {
                return Err(invalid("rush_hour program needs pairs > 0, ramp > 0"));
            }
            if peak_rate <= base_rate || base_rate < 0.0 {
                return Err(invalid(
                    "rush_hour program needs peak_rate > base_rate >= 0",
                ));
            }
            (0..pairs)
                .filter_map(|k| {
                    sample_pair(world, seed, program, k as u64, &terminals, &terminals)
                        .map(|od| (k, od))
                })
                .map(|(k, (o, d))| {
                    // Stagger onsets in three waves so the rush builds up
                    // rather than arriving as a single front.
                    let start = onset + (k % 3) as f64 * stagger;
                    let peak = start + ramp;
                    OdFlow::new(
                        o,
                        d,
                        FlowProfile::ramp(start, peak, peak + ramp, peak_rate, base_rate),
                    )
                })
                .collect()
        }
        DemandProgram::Day {
            pairs,
            peak_rate,
            horizon,
        } => {
            if pairs == 0 || peak_rate <= 0.0 || horizon <= 0.0 {
                return Err(invalid(
                    "day program needs pairs > 0, peak_rate > 0, horizon > 0",
                ));
            }
            // Piecewise day shape: AM peak, midday lull, PM peak,
            // evening taper — scaled onto [0, horizon].
            let p = peak_rate;
            let h = horizon;
            let profile = FlowProfile::new(vec![
                (0.0, 0.1 * p),
                (0.2 * h, p),
                (0.35 * h, 0.4 * p),
                (0.55 * h, 0.5 * p),
                (0.75 * h, 0.95 * p),
                (0.9 * h, 0.3 * p),
                (h, 0.1 * p),
            ]);
            (0..pairs)
                .filter_map(|k| sample_pair(world, seed, program, k as u64, &terminals, &terminals))
                .map(|(o, d)| OdFlow::new(o, d, profile.clone()))
                .collect()
        }
        DemandProgram::JamWave {
            waves,
            pairs_per_wave,
            peak_rate,
            period,
            width,
        } => {
            if waves == 0 || pairs_per_wave == 0 {
                return Err(invalid(
                    "jam_wave program needs waves > 0 and pairs_per_wave > 0",
                ));
            }
            if peak_rate <= 0.0 || period <= 0.0 || width <= 0.0 {
                return Err(invalid(
                    "jam_wave program needs peak_rate, period, width > 0",
                ));
            }
            let mut flows = Vec::new();
            for w in 0..waves {
                let start = w as f64 * period;
                for k in 0..pairs_per_wave {
                    let salt = (w * pairs_per_wave + k) as u64;
                    if let Some((o, d)) =
                        sample_pair(world, seed, program, salt, &terminals, &terminals)
                    {
                        flows.push(OdFlow::new(
                            o,
                            d,
                            FlowProfile::ramp(
                                start,
                                start + width / 2.0,
                                start + width,
                                peak_rate,
                                0.0,
                            ),
                        ));
                    }
                }
            }
            flows
        }
        DemandProgram::Surge {
            sinks,
            pairs,
            peak_rate,
            start,
            width,
        } => {
            if sinks == 0 || pairs == 0 || peak_rate <= 0.0 || width <= 0.0 || start < 0.0 {
                return Err(invalid(
                    "surge program needs sinks, pairs > 0 and peak_rate, width > 0",
                ));
            }
            // A few event venues absorb traffic from everywhere: pick
            // the sinks first, then aim each pair at one of them.
            let venues: Vec<NodeId> = (0..sinks)
                .map(|j| pick(&terminals, seed, program, [u64::MAX, j as u64, 2]))
                .collect();
            (0..pairs)
                .filter_map(|k| {
                    let venue = std::slice::from_ref(&venues[k % venues.len()]);
                    sample_pair(world, seed, program, k as u64, &terminals, venue)
                })
                .map(|(o, d)| {
                    OdFlow::new(
                        o,
                        d,
                        FlowProfile::ramp(
                            start,
                            start + width / 2.0,
                            start + width,
                            peak_rate,
                            0.0,
                        ),
                    )
                })
                .collect()
        }
        DemandProgram::Conflicts {
            flows: num_flows,
            peak_rate,
            horizon,
        } => {
            if num_flows == 0 || peak_rate <= 0.0 || horizon <= 0.0 {
                return Err(invalid(
                    "conflicts program needs flows > 0, peak_rate > 0, horizon > 0",
                ));
            }
            conflicts(world, num_flows, peak_rate, horizon, rng)?
        }
    };
    if flows.is_empty() {
        return Err(invalid("demand program produced no routable flow"));
    }
    Ok(flows)
}

/// The legacy Monaco conflicting-flow sampler, verbatim: terminal pairs
/// drawn from the interleaved (west,east per row, then south,north per
/// column) terminal list using the compile-wide RNG, keeping routable
/// pairs, with onsets staggered across three 300 s waves.
fn conflicts(
    world: &World,
    num_flows: usize,
    peak_rate: f64,
    horizon: f64,
    rng: &mut StdRng,
) -> Result<Vec<OdFlow>, SimError> {
    let b = &world.boundary;
    let mut terminals = Vec::with_capacity(b.all().len());
    for r in 0..b.rows() {
        terminals.push(b.west_terminal(r));
        terminals.push(b.east_terminal(r));
    }
    for c in 0..b.cols() {
        terminals.push(b.south_terminal(c));
        terminals.push(b.north_terminal(c));
    }
    let mut flows = Vec::new();
    let mut attempts = 0;
    while flows.len() < num_flows && attempts < 400 {
        attempts += 1;
        let o = terminals[rng.gen_range(0..terminals.len())];
        let d = terminals[rng.gen_range(0..terminals.len())];
        if o == d {
            continue;
        }
        if shortest_route(&world.network, o, d, FREE_SPEED).is_err() {
            continue;
        }
        let onset = f64::from(rng.gen_range(0..3u32)) * 300.0;
        let peak = onset + 900.0;
        let end = (peak + 900.0).min(horizon.max(peak + 1.0));
        flows.push(OdFlow::new(
            o,
            d,
            FlowProfile::ramp(onset, peak, end, peak_rate, 50.0),
        ));
    }
    if flows.len() < num_flows {
        return Err(invalid("could not sample enough routable OD flows"));
    }
    Ok(flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use rand::SeedableRng;
    use tsc_sim::scenario::patterns::FlowPattern;

    fn world() -> World {
        crate::topology::build(
            &TopologySpec::Grid {
                cols: 4,
                rows: 4,
                spacing: 200.0,
            },
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap()
    }

    fn compile(prog: &DemandProgram, seed: u64) -> Vec<OdFlow> {
        let mut rng = StdRng::seed_from_u64(seed);
        compile_program(prog, 0, seed, &world(), &mut rng).unwrap()
    }

    #[test]
    fn hashed_programs_are_seed_deterministic_and_order_independent() {
        let prog = DemandProgram::Uniform {
            pairs: 6,
            rate: 200.0,
            start: 0.0,
            end: 1800.0,
        };
        let a = compile(&prog, 42);
        let b = compile(&prog, 42);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.origin, x.destination), (y.origin, y.destination));
        }
        let c = compile(&prog, 43);
        let same = a
            .iter()
            .zip(&c)
            .all(|(x, y)| (x.origin, x.destination) == (y.origin, y.destination));
        assert!(!same, "different seed should redraw pairs");
        // A different program index yields different draws too.
        let w = world();
        let mut rng = StdRng::seed_from_u64(42);
        let shifted = compile_program(&prog, 1, 42, &w, &mut rng).unwrap();
        let same = a
            .iter()
            .zip(&shifted)
            .all(|(x, y)| (x.origin, x.destination) == (y.origin, y.destination));
        assert!(!same, "program index salts the draws");
    }

    #[test]
    fn rush_hour_staggers_onsets() {
        let flows = compile(
            &DemandProgram::RushHour {
                pairs: 6,
                peak_rate: 600.0,
                base_rate: 50.0,
                onset: 0.0,
                ramp: 600.0,
                stagger: 300.0,
            },
            7,
        );
        assert_eq!(flows.len(), 6);
        let onsets: std::collections::BTreeSet<u64> = flows
            .iter()
            .map(|f| f.profile.points().first().unwrap().0 as u64)
            .collect();
        assert_eq!(onsets, [0u64, 300, 600].into_iter().collect());
    }

    #[test]
    fn day_profile_has_two_peaks() {
        let flows = compile(
            &DemandProgram::Day {
                pairs: 2,
                peak_rate: 800.0,
                horizon: 3600.0,
            },
            5,
        );
        let p = &flows[0].profile;
        let am = p.rate_at(0.2 * 3600.0);
        let lull = p.rate_at(0.45 * 3600.0);
        let pm = p.rate_at(0.75 * 3600.0);
        assert!(am > lull && pm > lull);
        assert_eq!(p.end_time(), 3600.0);
    }

    #[test]
    fn jam_wave_produces_periodic_pulses() {
        let flows = compile(
            &DemandProgram::JamWave {
                waves: 3,
                pairs_per_wave: 2,
                peak_rate: 900.0,
                period: 600.0,
                width: 300.0,
            },
            9,
        );
        assert_eq!(flows.len(), 6);
        let starts: Vec<f64> = flows
            .iter()
            .map(|f| f.profile.points().first().unwrap().0)
            .collect();
        assert!(starts.contains(&0.0) && starts.contains(&600.0) && starts.contains(&1200.0));
    }

    #[test]
    fn surge_concentrates_on_sinks() {
        let flows = compile(
            &DemandProgram::Surge {
                sinks: 2,
                pairs: 8,
                peak_rate: 700.0,
                start: 300.0,
                width: 900.0,
            },
            3,
        );
        assert_eq!(flows.len(), 8);
        let sinks: std::collections::BTreeSet<usize> =
            flows.iter().map(|f| f.destination.0).collect();
        assert!(sinks.len() <= 2, "all pairs aim at the chosen venues");
    }

    #[test]
    fn conflicts_matches_legacy_interleaved_terminal_order() {
        // On a grid boundary the interleaved list must be
        // w0,e0,w1,e1,...,s0,n0,s1,n1,...
        let w = world();
        let b = &w.boundary;
        let mut rng = StdRng::seed_from_u64(2);
        let flows = conflicts(&w, 4, 600.0, 2700.0, &mut rng).unwrap();
        assert_eq!(flows.len(), 4);
        let legacy: Vec<_> = (0..b.rows())
            .flat_map(|r| [b.west_terminal(r), b.east_terminal(r)])
            .chain((0..b.cols()).flat_map(|c| [b.south_terminal(c), b.north_terminal(c)]))
            .collect();
        for f in &flows {
            assert!(legacy.contains(&f.origin));
            assert!(legacy.contains(&f.destination));
        }
    }

    #[test]
    fn pattern_program_lowers_via_flows_on() {
        let flows = compile(
            &DemandProgram::Pattern {
                pattern: FlowPattern::One,
                peak_rate: 500.0,
                base_rate: 100.0,
            },
            1,
        );
        assert!(!flows.is_empty());
    }

    #[test]
    fn degenerate_programs_are_rejected() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(1);
        for prog in [
            DemandProgram::Uniform {
                pairs: 0,
                rate: 100.0,
                start: 0.0,
                end: 100.0,
            },
            DemandProgram::Uniform {
                pairs: 2,
                rate: 100.0,
                start: 200.0,
                end: 100.0,
            },
            DemandProgram::RushHour {
                pairs: 2,
                peak_rate: 100.0,
                base_rate: 200.0,
                onset: 0.0,
                ramp: 600.0,
                stagger: 0.0,
            },
            DemandProgram::JamWave {
                waves: 0,
                pairs_per_wave: 1,
                peak_rate: 100.0,
                period: 600.0,
                width: 300.0,
            },
            DemandProgram::Surge {
                sinks: 0,
                pairs: 1,
                peak_rate: 100.0,
                start: 0.0,
                width: 300.0,
            },
        ] {
            assert!(compile_program(&prog, 0, 1, &w, &mut rng).is_err());
        }
    }
}
