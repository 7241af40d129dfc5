//! Tiny-size smoke runs of every workload, untraced and traced, plus a
//! check that `BENCHMARK.json` declares exactly the metrics the
//! benchmark prints.

use perfbench::trace::LAYER_SUM_TOLERANCE_PCT;
use perfbench::{run_workload, Options, Scale, Workload, END_TO_END, PER_LAYER};
use tsc_obs::Json;

fn tiny(trace: bool) -> Options {
    Options {
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    }
}

fn names(metrics: &[perfbench::Metric]) -> Vec<&'static str> {
    metrics.iter().map(|m| m.name).collect()
}

// One test for all runs: span collection is process-global, so traced
// and untraced runs must not overlap.
#[test]
fn every_workload_runs_untraced_and_traced_at_tiny_size() {
    for workload in Workload::ALL {
        let plain = run_workload(workload, &tiny(false)).expect("untraced run");
        assert!(plain.correct, "{}: {:#?}", workload.name(), plain.report);
        assert_eq!(plain.failed, 0, "{}", workload.name());
        assert!(plain.attempted >= 1);
        assert_eq!(
            names(&plain.metrics),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for m in &plain.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let digest = |o: &perfbench::Outcome| {
            o.report
                .iter()
                .find(|l| l.starts_with("digest "))
                .cloned()
                .expect("a digest line")
        };

        let traced = run_workload(workload, &tiny(true)).expect("traced run");
        assert!(traced.correct, "{}: {:#?}", workload.name(), traced.report);
        assert_eq!(
            names(&traced.metrics),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        let gap = traced
            .metrics
            .iter()
            .find(|m| m.name == "trace.layer_sum_gap_pct")
            .expect("layer sum gap")
            .value;
        assert!(
            gap <= LAYER_SUM_TOLERANCE_PCT,
            "{}: gap {gap}",
            workload.name()
        );
        // Same seed, same outputs, traced or not.
        assert_eq!(digest(&plain), digest(&traced), "{}", workload.name());
        let json = Json::parse(&plain.to_json().compact()).expect("result parses");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match bench.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let triples = |key: &str| -> Vec<(String, String, String)> {
        list(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get_str(k).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let own = |catalogue: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        catalogue
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(triples("end_to_end"), own(&END_TO_END));
    assert_eq!(triples("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| w.get_str("name").expect("name").to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
