//! Road-side sensing with bounded coverage.
//!
//! The paper stresses that real deployments only see a *finite* range
//! around the stop line (loop detectors / cameras covering ~50 m,
//! §VI-A), and builds its state from link-level **pressure** and the
//! **head vehicle's accumulated waiting time** (Eq. 5) rather than raw
//! queue lengths. This module defines the detector configuration and the
//! per-intersection observation snapshot the simulator produces.

use crate::ids::{Direction, LinkId, NodeId};

/// Detector configuration shared by all intersections.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DetectorConfig {
    /// Coverage from the stop line (and from the upstream end of
    /// outgoing links), in meters. The paper uses 50 m.
    pub range: f64,
    /// Multiplicative count-noise amplitude: each link's counts are
    /// scaled by a deterministic pseudo-random factor in
    /// `[1 - noise, 1 + noise]`. 0 disables noise. Used by the
    /// robustness experiments (sensor degradation).
    pub noise: f64,
    /// Probability that a link's detector has failed for a given
    /// second (readings all zero). 0 disables dropout. Failures are
    /// deterministic in `(time, link)` for reproducibility.
    pub dropout: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            range: 50.0,
            noise: 0.0,
            dropout: 0.0,
        }
    }
}

impl DetectorConfig {
    /// A perfect detector with the given range.
    pub fn with_range(range: f64) -> Self {
        DetectorConfig {
            range,
            ..DetectorConfig::default()
        }
    }
}

/// Sensor reading for one link as seen from an intersection.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkObs {
    /// The observed link.
    pub link: LinkId,
    /// Travel direction of the link (orients the approach).
    pub direction: Direction,
    /// Vehicles detected within range.
    pub count: f64,
    /// Vehicles detected within range that are halted.
    pub halting: f64,
    /// Halted vehicles within range broken down by the movement they
    /// are queued for (`[left, through, right]`) — the paper's
    /// per-movement queues ("vehicles entering input link in order to
    /// make movement join a queue dedicated to that movement", §IV-A).
    pub halting_by_movement: [f64; 3],
    /// Accumulated waiting time (s) of the head vehicle, 0 if none.
    pub head_wait: f64,
}

/// Snapshot of one intersection's local sensing at a time step —
/// everything Eq. 5 needs: per-link detections on input links `L` and
/// output links `M`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IntersectionObs {
    /// The observed intersection.
    pub node: NodeId,
    /// Simulation time of the snapshot (s).
    pub time: u32,
    /// Readings for incoming links, ordered by approach direction index.
    pub incoming: Vec<LinkObs>,
    /// Vehicle counts near the upstream end of outgoing links, ordered
    /// by direction index (parallel to `outgoing_links`).
    pub outgoing_counts: Vec<f64>,
    /// The outgoing links (parallel to `outgoing_counts`).
    pub outgoing_links: Vec<LinkId>,
    /// Index of the active (or upcoming, during yellow) phase.
    pub current_phase: usize,
    /// Number of phases in this intersection's plan.
    pub num_phases: usize,
}

impl IntersectionObs {
    /// Intersection pressure: vehicles detected on input links minus
    /// vehicles detected on output links (paper §III-A / Fig. 2).
    pub fn pressure(&self) -> f64 {
        let inflow: f64 = self.incoming.iter().map(|l| l.count).sum();
        let outflow: f64 = self.outgoing_counts.iter().sum();
        inflow - outflow
    }

    /// Total halting vehicles over all incoming links — the queue term
    /// of the reward (Eq. 6).
    pub fn total_halting(&self) -> f64 {
        self.incoming.iter().map(|l| l.halting).sum()
    }

    /// Maximum head-vehicle wait over all incoming links — the delay
    /// term of the reward (Eq. 6) and of the paper's "average waiting
    /// time" metric.
    pub fn max_wait(&self) -> f64 {
        self.incoming
            .iter()
            .map(|l| l.head_wait)
            .fold(0.0, f64::max)
    }

    /// The reward of Eq. 6: `-(Σ halting + max wait)`.
    pub fn reward(&self) -> f64 {
        -(self.total_halting() + self.max_wait())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> IntersectionObs {
        IntersectionObs {
            node: NodeId(0),
            time: 10,
            incoming: vec![
                LinkObs {
                    link: LinkId(0),
                    direction: Direction::South,
                    count: 4.0,
                    halting: 3.0,
                    halting_by_movement: [1.0, 2.0, 0.0],
                    head_wait: 12.0,
                },
                LinkObs {
                    link: LinkId(1),
                    direction: Direction::West,
                    count: 2.0,
                    halting: 0.0,
                    halting_by_movement: [0.0, 0.0, 0.0],
                    head_wait: 5.0,
                },
            ],
            outgoing_counts: vec![1.0, 2.0],
            outgoing_links: vec![LinkId(2), LinkId(3)],
            current_phase: 1,
            num_phases: 4,
        }
    }

    #[test]
    fn pressure_is_in_minus_out() {
        assert_eq!(obs().pressure(), 6.0 - 3.0);
    }

    #[test]
    fn reward_penalizes_halting_and_max_wait() {
        let o = obs();
        assert_eq!(o.total_halting(), 3.0);
        assert_eq!(o.max_wait(), 12.0);
        assert_eq!(o.reward(), -15.0);
    }

    #[test]
    fn empty_intersection_has_zero_reward() {
        let o = IntersectionObs {
            node: NodeId(0),
            time: 0,
            incoming: vec![],
            outgoing_counts: vec![],
            outgoing_links: vec![],
            current_phase: 0,
            num_phases: 4,
        };
        assert_eq!(o.reward(), 0.0);
        assert_eq!(o.pressure(), 0.0);
    }
}
