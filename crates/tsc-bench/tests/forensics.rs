//! Forensics acceptance pins: an incident dumped during an
//! infra-chaos run replays **bit-for-bit** from its embedded context
//! alone — as a targeted tier-1 test and as a property test over
//! random chaos and load plans.

use proptest::prelude::*;
use tsc_bench::forensics::{replay_incident, FleetWorldSpec, TenantWorldSpec};
use tsc_obs::{read_incident, FlightTrigger, Json};
use tsc_serve::{InfraChaosPlan, LoadPlan, SupervisorConfig, TenantSel};
use tsc_sim::Window;

/// Quiet the injected-panic backtraces (caught at the tenant
/// boundary); every other panic still reports.
fn install_quiet_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
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

fn base_spec(n_tenants: usize, fleet_seed: u64) -> FleetWorldSpec {
    let tenants = (0..n_tenants)
        .map(|i| TenantWorldSpec {
            name: format!("tenant-{i}"),
            cols: 2,
            rows: 2,
            spacing: 150.0,
            pattern: (i * 2) % 5,
            hidden: 16,
            lstm_hidden: 16,
            model_seed: 1000 + i as u64,
            env_seed: 100 + i as u64,
        })
        .collect();
    FleetWorldSpec {
        tenants,
        decision_interval: 5,
        horizon: 1_000_000,
        fleet_seed,
        supervisor: SupervisorConfig {
            backoff_base: 1,
            backoff_max: 2,
            ..Default::default()
        },
        admission_capacity: None,
        flight_capacity: 32,
        flight_cooldown: 8,
        chaos: InfraChaosPlan::new(),
        load: LoadPlan::new(),
    }
}

/// The replay context round-trips exactly through its JSON encoding.
#[test]
fn world_spec_json_round_trips() {
    let mut spec = base_spec(3, 42);
    spec.chaos = InfraChaosPlan::new()
        .tenant_panic(Window::new(10, 25), TenantSel::One(1), 0.7)
        .reload_corrupt(Window::always(), TenantSel::All, 0.5)
        .latency_spike(Window::new(3, 9), TenantSel::One(0), 150, 0.4)
        .reload_storm(Window::new(0, 30), TenantSel::One(2), 4);
    spec.load = LoadPlan::new().phase(Window::new(5, 20), TenantSel::All, 7, 3);
    spec.admission_capacity = Some(64);
    let back = FleetWorldSpec::from_json(&spec.to_json()).expect("parses");
    assert_eq!(back, spec);
}

/// Replaces the value at `path` (object keys and array indices) in `j`.
fn set_at(j: &mut Json, path: &[&str], value: Json) {
    let mut cur = j;
    for seg in path {
        cur = match cur {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).expect(seg).1,
            Json::Arr(items) => &mut items[seg.parse::<usize>().expect(seg)],
            other => panic!("{seg}: not a container: {other:?}"),
        };
    }
    *cur = value;
}

/// Every integer field of the replay context rejects values a cast
/// would silently wrap, truncate or saturate (negative, fractional,
/// non-finite, out of range, wrong type), and a zero reload-storm
/// cadence; the unmutated context still round-trips exactly.
#[test]
fn mutated_integer_fields_are_rejected() {
    let mut spec = base_spec(2, 42);
    spec.chaos = InfraChaosPlan::new()
        .tenant_panic(Window::new(10, 25), TenantSel::One(1), 0.7)
        .reload_corrupt(Window::always(), TenantSel::All, 0.5)
        .latency_spike(Window::new(3, 9), TenantSel::One(0), 150, 0.4)
        .reload_storm(Window::new(0, 30), TenantSel::One(1), 4);
    spec.load = LoadPlan::new().phase(Window::new(5, 20), TenantSel::All, 7, 3);
    spec.admission_capacity = Some(64);
    let good = spec.to_json();
    assert_eq!(FleetWorldSpec::from_json(&good).as_ref(), Some(&spec));

    let num = Json::Num;
    let table: Vec<(&[&str], Json)> = vec![
        (&["tenants", "0", "cols"], num(1e30)),
        (&["tenants", "0", "rows"], num(-1.0)),
        (&["tenants", "0", "pattern"], num(2.5)),
        (&["tenants", "1", "hidden"], num(f64::NAN)),
        (&["tenants", "1", "lstm_hidden"], Json::str("16")),
        (&["decision_interval"], num(4_294_967_296.0)),
        (&["horizon"], num(-1.0)),
        (&["flight_capacity"], num(f64::INFINITY)),
        (&["flight_cooldown"], num(0.5)),
        (&["admission_capacity"], num(-64.0)),
        (&["supervisor", "window"], num(-20.0)),
        (&["supervisor", "min_samples"], num(1.5)),
        (&["supervisor", "backoff_base"], num(f64::NEG_INFINITY)),
        (&["supervisor", "backoff_max"], num(-2.0)),
        (&["supervisor", "retry_budget"], num(4_294_967_296.0)),
        (&["supervisor", "probation_steps"], num(-5.0)),
        (&["chaos", "0", "tenants"], num(-3.0)),
        (&["chaos", "0", "tenants"], num(0.5)),
        (&["chaos", "1", "window", "start"], num(-1.0)),
        (&["chaos", "1", "window", "end"], num(1e30)),
        (&["chaos", "2", "fault", "extra_us"], num(-150.0)),
        (&["chaos", "3", "fault", "every"], num(0.0)),
        (&["chaos", "3", "fault", "every"], num(1e10)),
        (&["load", "0", "tenants"], num(-3.0)),
        (&["load", "0", "base"], num(-7.0)),
        (&["load", "0", "jitter"], num(3.5)),
    ];
    for (path, value) in table {
        let mut j = good.clone();
        set_at(&mut j, path, value.clone());
        assert_eq!(
            FleetWorldSpec::from_json(&j),
            None,
            "{path:?} = {value:?} must be rejected"
        );
    }
}

/// Tier-1 acceptance pin: a panic-chaos run dumps an incident file;
/// reconstructing the world from that file alone and re-executing the
/// window reproduces every captured frame bit-for-bit.
#[test]
fn infra_chaos_incident_replays_bit_for_bit_from_its_file() {
    install_quiet_hook();
    let dir = std::env::temp_dir().join(format!("forensics-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut spec = base_spec(3, 42);
    spec.chaos = InfraChaosPlan::new().tenant_panic(Window::new(8, 20), TenantSel::One(1), 1.0);

    let (mut fleet, mut envs) = spec.build().unwrap();
    fleet.set_incident_dir(dir.clone());
    spec.run(&mut fleet, &mut envs, 30).unwrap();
    assert!(
        fleet.tenant_stats(1).quarantines > 0,
        "chaos must drive the tenant into quarantine"
    );
    let paths = fleet.incident_paths().to_vec();
    assert!(!paths.is_empty(), "the panic window must dump");

    for path in &paths {
        let incident = read_incident(path).unwrap();
        assert_eq!(incident.trigger, FlightTrigger::Panic);
        let report = replay_incident(&incident).unwrap();
        assert!(
            report.clean(),
            "replay of {} diverged: {:?}",
            path.display(),
            report.mismatches
        );
        assert_eq!(report.captured_frames, incident.frames.len());
        // The causal pass saw the chaos scope on the captured frames.
        assert!(report.causal.get_num("frames_in_chaos_scope").unwrap() > 0.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for ANY (small) chaos plan and load program, a
    /// snapshot incident taken mid-run replays bit-for-bit from its
    /// embedded context.
    #[test]
    fn random_chaos_and_load_plans_replay_bit_for_bit(
        seed in 0u64..1000,
        panic_p in 0.0f64..1.0,
        panic_start in 0u64..15,
        panic_len in 1u64..12,
        corrupt_p in 0.0f64..1.0,
        spike_us in 0u64..200,
        spike_p in 0.0f64..1.0,
        storm_every in 1u32..6,
        load_base in 1u64..10,
        load_jitter in 0u64..5,
        capacity_sel in 0u64..4,
        target in 0usize..2,
        steps in 12u64..28,
    ) {
        install_quiet_hook();
        let mut spec = base_spec(2, seed);
        spec.chaos = InfraChaosPlan::new()
            .tenant_panic(
                Window::new(panic_start as u32, (panic_start + panic_len) as u32),
                TenantSel::One(target),
                panic_p,
            )
            .reload_corrupt(Window::always(), TenantSel::All, corrupt_p)
            .latency_spike(Window::new(2, 10), TenantSel::One(1 - target), spike_us, spike_p)
            .reload_storm(Window::always(), TenantSel::All, storm_every);
        spec.load = LoadPlan::new().phase(Window::new(4, 20), TenantSel::All, load_base, load_jitter);
        // 0 = admission disabled; otherwise a capacity tight enough
        // to force brownouts under the load phase.
        spec.admission_capacity = (capacity_sel > 0).then_some(capacity_sel * 32);

        let (mut fleet, mut envs) = spec.build().unwrap();
        spec.run(&mut fleet, &mut envs, steps).unwrap();
        let incident = fleet.snapshot(target).expect("recorder on");
        prop_assert!(!incident.frames.is_empty());

        let report = replay_incident(&incident).unwrap();
        prop_assert!(
            report.clean(),
            "replay diverged under seed={seed}: {:?}",
            report.mismatches
        );
    }
}
