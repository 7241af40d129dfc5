//! Complete simulation scenarios: network + signal plans + demand.
//!
//! The paper evaluates on two environments, both rebuilt here:
//!
//! * [`grid`] — the 6×6 synthetic grid with two-lane arterials and
//!   one-lane avenues (§VI-A), together with the five traffic flow
//!   [`patterns`] of Fig. 6;
//! * the heterogeneous Monaco-style network of §VI-D now lives in the
//!   `tsc-scenario` crate as a compiled spec (`monaco_spec`), which
//!   reproduces the retired builder bit-for-bit.

pub mod grid;
pub mod patterns;

use tsc_obs::det::Fnv64;

use crate::demand::OdFlow;
use crate::error::SimError;
use crate::ids::NodeId;
use crate::network::Network;
use crate::signal::SignalPlan;

/// The boundary terminals of a generated network, grouped by the side
/// they sit on: `west`/`east` indexed by row, `south`/`north` by
/// column. This is the surface the flow [`patterns`] address, so any
/// topology that exposes a `Boundary` — the 6×6 grid, a compiled
/// irregular city graph, an arterial corridor — can carry the paper's
/// five demand patterns (see [`patterns::flows_on`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Boundary {
    /// Terminals on the west side, south-to-north (one per row).
    pub west: Vec<NodeId>,
    /// Terminals on the east side, south-to-north (one per row).
    pub east: Vec<NodeId>,
    /// Terminals on the south side, west-to-east (one per column).
    pub south: Vec<NodeId>,
    /// Terminals on the north side, west-to-east (one per column).
    pub north: Vec<NodeId>,
}

impl Boundary {
    /// Number of west/east rows.
    pub fn rows(&self) -> usize {
        self.west.len()
    }

    /// Number of south/north columns.
    pub fn cols(&self) -> usize {
        self.south.len()
    }

    /// Terminal west of row `row` (vehicles entering travel east).
    pub fn west_terminal(&self, row: usize) -> NodeId {
        self.west[row]
    }

    /// Terminal east of row `row`.
    pub fn east_terminal(&self, row: usize) -> NodeId {
        self.east[row]
    }

    /// Terminal south of column `col`.
    pub fn south_terminal(&self, col: usize) -> NodeId {
        self.south[col]
    }

    /// Terminal north of column `col`.
    pub fn north_terminal(&self, col: usize) -> NodeId {
        self.north[col]
    }

    /// All terminals, west → east → south → north.
    pub fn all(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(
            self.west.len() + self.east.len() + self.south.len() + self.north.len(),
        );
        out.extend_from_slice(&self.west);
        out.extend_from_slice(&self.east);
        out.extend_from_slice(&self.south);
        out.extend_from_slice(&self.north);
        out
    }
}

/// A self-contained simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name (used in experiment reports).
    pub name: String,
    /// The road network.
    pub network: Network,
    /// One plan per signalized intersection; the order here is the
    /// canonical agent order.
    pub signal_plans: Vec<SignalPlan>,
    /// Demand streams.
    pub flows: Vec<OdFlow>,
}

impl Scenario {
    /// Assembles and validates a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if a signal plan references a
    /// non-signalized or duplicate node, or [`SimError::UnknownNode`] if
    /// a flow endpoint is out of range.
    pub fn new(
        name: impl Into<String>,
        network: Network,
        signal_plans: Vec<SignalPlan>,
        flows: Vec<OdFlow>,
    ) -> Result<Self, SimError> {
        let mut seen = std::collections::HashSet::new();
        for plan in &signal_plans {
            let node = plan.node();
            if node.index() >= network.num_nodes() {
                return Err(SimError::UnknownNode(node));
            }
            if !network.node(node).is_signalized() {
                return Err(SimError::InvalidConfig(format!(
                    "signal plan attached to non-signalized node {node}"
                )));
            }
            if !seen.insert(node) {
                return Err(SimError::InvalidConfig(format!(
                    "duplicate signal plan for node {node}"
                )));
            }
        }
        for flow in &flows {
            for node in [flow.origin, flow.destination] {
                if node.index() >= network.num_nodes() {
                    return Err(SimError::UnknownNode(node));
                }
            }
        }
        Ok(Scenario {
            name: name.into(),
            network,
            signal_plans,
            flows,
        })
    }

    /// The signalized intersections in agent order.
    pub fn agents(&self) -> Vec<NodeId> {
        self.signal_plans.iter().map(|p| p.node()).collect()
    }

    /// Number of controlled intersections.
    pub fn num_agents(&self) -> usize {
        self.signal_plans.len()
    }

    /// A stable FNV-1a fingerprint of the scenario's full structural
    /// content: name, every node (position bits, signalization), every
    /// link (endpoints, direction, length bits, per-lane movements),
    /// every signal plan (phases as *sorted* permitted pairs — phases
    /// store a set, so ordering is normalized here), and every flow
    /// (endpoints plus exact profile control-point bits).
    ///
    /// Two scenarios compare equal bit-for-bit on the simulation path
    /// iff their fingerprints agree; bench reports embed this value so
    /// every run is attributable to an exact compiled world.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.name);
        h.write_usize(self.network.num_nodes());
        for node in self.network.nodes() {
            let (x, y) = node.position();
            h.write_f64(x);
            h.write_f64(y);
            h.write_u64(u64::from(node.is_signalized()));
        }
        h.write_usize(self.network.num_links());
        for link in self.network.links() {
            h.write_usize(link.from().index());
            h.write_usize(link.to().index());
            h.write_usize(link.direction().index());
            h.write_f64(link.length());
            h.write_usize(link.num_lanes());
            for lane in link.lanes() {
                h.write_usize(lane.movements().len());
                for m in lane.movements() {
                    h.write_usize(m.index());
                }
            }
        }
        h.write_usize(self.signal_plans.len());
        for plan in &self.signal_plans {
            h.write_usize(plan.node().index());
            h.write_usize(plan.num_phases());
            for phase in plan.phases() {
                let mut pairs: Vec<(usize, usize)> = phase
                    .permitted()
                    .map(|(l, m)| (l.index(), m.index()))
                    .collect();
                pairs.sort_unstable();
                h.write_usize(pairs.len());
                for (l, m) in pairs {
                    h.write_usize(l);
                    h.write_usize(m);
                }
            }
        }
        h.write_usize(self.flows.len());
        for flow in &self.flows {
            h.write_usize(flow.origin.index());
            h.write_usize(flow.destination.index());
            let points = flow.profile.points();
            h.write_usize(points.len());
            for &(t, r) in points {
                h.write_f64(t);
                h.write_f64(r);
            }
        }
        h.finish()
    }

    /// Replaces the demand, keeping network and plans — used to evaluate
    /// a policy trained on one flow pattern against another (§VI-C).
    pub fn with_flows(&self, name: impl Into<String>, flows: Vec<OdFlow>) -> Scenario {
        Scenario {
            name: name.into(),
            network: self.network.clone(),
            signal_plans: self.signal_plans.clone(),
            flows,
        }
    }
}
