//! The traced run's layer table, built from `tsc_obs` spans.
//!
//! The benchmark wraps its calls into each layer in its own spans
//! (named `bench.*`) and, while tracing, also reads the spans the
//! program emits inside those calls. A layer's self time is its span
//! total minus the time its child spans cover, so the self times of
//! every span under the benchmark's root spans partition the traced
//! wall time; [`layer_sum_gap_pct`] checks that they do.

use std::collections::{BTreeMap, BTreeSet};

use tsc_obs::span::{self, SpanNode, SpanStat};

/// Largest accepted gap between the traced wall time and the sum of
/// the layer table's self times, in percent of the wall time.
pub const LAYER_SUM_TOLERANCE_PCT: f64 = 2.0;

/// Aggregated span statistics of the call trees under a set of root
/// spans.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    by_name: BTreeMap<&'static str, SpanStat>,
}

impl SpanTable {
    /// Collects the current span registry, keeping only the trees
    /// whose root span (entered with no open parent on its thread) is
    /// named in `roots`.
    pub fn collect(roots: &[&str]) -> Self {
        Self::from_tree(&span::report_tree(), roots)
    }

    /// [`collect`](Self::collect) over an explicit span tree.
    pub fn from_tree(tree: &[SpanNode], roots: &[&str]) -> Self {
        let is_root = |n: &SpanNode| n.parent.is_none() && roots.contains(&n.name);
        let mut reached: BTreeSet<&str> =
            tree.iter().filter(|n| is_root(n)).map(|n| n.name).collect();
        loop {
            let before = reached.len();
            for n in tree {
                if n.parent.is_some_and(|p| reached.contains(p)) {
                    reached.insert(n.name);
                }
            }
            if reached.len() == before {
                break;
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for n in tree {
            if is_root(n) || n.parent.is_some_and(|p| reached.contains(p)) {
                let slot = by_name.entry(n.name).or_default();
                slot.count += n.stat.count;
                slot.total_ns += n.stat.total_ns;
                slot.self_ns += n.stat.self_ns;
            }
        }
        SpanTable { by_name }
    }

    fn stat(&self, name: &str) -> SpanStat {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Seconds while a span of this name was open.
    pub fn total_s(&self, name: &str) -> f64 {
        self.stat(name).total_ns as f64 * 1e-9
    }

    /// Seconds of this span not covered by its children.
    pub fn self_s(&self, name: &str) -> f64 {
        self.stat(name).self_ns as f64 * 1e-9
    }

    /// Completed occurrences of this span.
    pub fn count(&self, name: &str) -> u64 {
        self.stat(name).count
    }

    /// `(name, count, self seconds)` rows, largest self time first.
    pub fn rows(&self) -> Vec<(&'static str, u64, f64)> {
        let mut rows: Vec<_> = self
            .by_name
            .iter()
            .map(|(&name, s)| (name, s.count, s.self_ns as f64 * 1e-9))
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(b.0)));
        rows
    }
}

/// Distance between `wall_s` and the sum of the layer self times, in
/// percent of `wall_s`.
pub fn layer_sum_gap_pct(wall_s: f64, layer_self_s: &[f64]) -> f64 {
    if wall_s <= 0.0 {
        return 100.0;
    }
    let sum: f64 = layer_self_s.iter().sum();
    (wall_s - sum).abs() / wall_s * 100.0
}

/// Renders the layer table: one line per layer with its call count,
/// self seconds per operation and share of `wall_s`.
pub fn render_table(rows: &[(&str, u64, f64)], wall_s: f64, ops: usize) -> Vec<String> {
    let per_op = 1.0 / ops.max(1) as f64;
    let mut out = vec![format!(
        "  {:<28} {:>12} {:>14} {:>8}",
        "layer (self time)", "calls/op", "self s/op", "share"
    )];
    for &(name, count, self_s) in rows {
        out.push(format!(
            "  {:<28} {:>12.1} {:>14.6} {:>7.1}%",
            name,
            count as f64 * per_op,
            self_s * per_op,
            self_s / wall_s.max(1e-12) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(
        name: &'static str,
        parent: Option<&'static str>,
        count: u64,
        total_ns: u64,
        self_ns: u64,
    ) -> SpanNode {
        SpanNode {
            name,
            parent,
            stat: SpanStat {
                count,
                total_ns,
                self_ns,
            },
        }
    }

    fn tree() -> Vec<SpanNode> {
        vec![
            node("bench.op", None, 2, 1_000, 100),
            node("layer.a", Some("bench.op"), 4, 600, 400),
            node("layer.b", Some("layer.a"), 8, 200, 200),
            node("layer.c", Some("bench.op"), 2, 300, 300),
            // Outside the benchmark's roots: must not be counted.
            node("layer.a", None, 1, 5_000, 5_000),
            node("stray", None, 1, 7_000, 7_000),
        ]
    }

    #[test]
    fn collect_keeps_only_subtrees_of_the_named_roots() {
        let t = SpanTable::from_tree(&tree(), &["bench.op"]);
        assert_eq!(t.count("layer.a"), 4);
        assert_eq!(t.count("stray"), 0);
        assert!((t.total_s("bench.op") - 1e-6).abs() < 1e-15);
        assert_eq!(t.rows().first().map(|r| r.0), Some("layer.a"));
    }

    #[test]
    fn self_times_of_a_consistent_tree_sum_to_the_root_total() {
        let t = SpanTable::from_tree(&tree(), &["bench.op"]);
        let wall = t.total_s("bench.op");
        let selfs: Vec<f64> = t.rows().iter().map(|r| r.2).collect();
        assert!(layer_sum_gap_pct(wall, &selfs) < 1e-9);
    }

    #[test]
    fn layer_sum_gap_flags_unattributed_time() {
        // 10% of the wall is in no span.
        assert!((layer_sum_gap_pct(1.0, &[0.5, 0.4]) - 10.0).abs() < 1e-9);
        assert!(layer_sum_gap_pct(1.0, &[0.5, 0.4]) > LAYER_SUM_TOLERANCE_PCT);
        // Double counting shows as a gap too.
        assert!((layer_sum_gap_pct(1.0, &[0.7, 0.4]) - 10.0).abs() < 1e-9);
        assert_eq!(layer_sum_gap_pct(0.0, &[]), 100.0);
    }
}
