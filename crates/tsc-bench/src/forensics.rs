//! Replay-to-reproduce forensics over flight-recorder incidents.
//!
//! An incident file carries two things: the flight ring (compact
//! per-step [`FlightFrame`]s) and a **replay context** — here, a
//! [`FleetWorldSpec`]: the complete deterministic recipe for the world
//! that produced the incident (grids, flow patterns, model seeds,
//! supervisor knobs, chaos plan, load plan). Because every fleet
//! decision is a pure function of that recipe, [`replay_incident`]
//! can rebuild the world from the context alone, re-execute the
//! captured window, and diff frame-by-frame: a clean replay matches
//! **bit-for-bit** (pinned by a tier-1 test and a property test over
//! random chaos/load plans).
//!
//! Wall-clock is the one thing a replay cannot reproduce, so the
//! canonical forensics world serves with no deadline (`ServeConfig`
//! default) and the frame's `slack_us` is excluded from digests and
//! diffs ([`FlightFrame::diff_fields`]).
//!
//! The replay also runs a **causal-correlation pass** over the
//! message plane: under pairwise communication, agent `a`'s step-`t`
//! forward consumed the message its partner published at `t − 1`
//! ([`ServeRuntime::last_partners`]), so a frame whose *previous*
//! frame was served by standby or a held plan consumed messages
//! published under degradation — the pass flags those frames and maps
//! each agent to its upstream partner.

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_obs::flight::frames_digest;
use tsc_obs::{FlightFrame, Incident, Json};
use tsc_serve::{
    AdmissionConfig, FleetConfig, FleetRuntime, FlightConfig, InfraChaosPlan, LoadPlan,
    ServeConfig, ServeRuntime, SupervisorConfig, TenantSpec,
};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, SimConfig, TscEnv};

/// One tenant's share of the deterministic world recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantWorldSpec {
    /// Operator-facing tenant name.
    pub name: String,
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Grid spacing in meters.
    pub spacing: f64,
    /// Index into [`FlowPattern::ALL`].
    pub pattern: usize,
    /// Trunk width of the tenant's policy.
    pub hidden: usize,
    /// LSTM width of the tenant's policy.
    pub lstm_hidden: usize,
    /// Weight-init seed ([`PairUpLightConfig::seed`]) — the policy is
    /// rebuilt from scratch on replay, bit-identical.
    pub model_seed: u64,
    /// The environment reset seed the canonical loop drives with.
    pub env_seed: u64,
}

/// The complete deterministic recipe for a forensics fleet world —
/// the replay context stamped into every incident this harness dumps.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetWorldSpec {
    /// Per-tenant world recipes.
    pub tenants: Vec<TenantWorldSpec>,
    /// Environment decision interval (s).
    pub decision_interval: u32,
    /// Episode horizon (s) — generous, so episodes outlive the run.
    pub horizon: u32,
    /// The fleet seed (chaos draws, backoff jitter, admission
    /// tie-breaks, load-plan bursts).
    pub fleet_seed: u64,
    /// Supervision knobs.
    pub supervisor: SupervisorConfig,
    /// Admission capacity (`None` = admission disabled).
    pub admission_capacity: Option<u64>,
    /// Flight-ring capacity in frames.
    pub flight_capacity: usize,
    /// Automatic-dump cooldown in fleet steps.
    pub flight_cooldown: u64,
    /// The infrastructure chaos plan.
    pub chaos: InfraChaosPlan,
    /// The offered-load program.
    pub load: LoadPlan,
}

impl FleetWorldSpec {
    /// The recipe as self-describing JSON (the incident replay
    /// context). [`from_json`](Self::from_json) round-trips it.
    pub fn to_json(&self) -> Json {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                Json::obj([
                    ("name", Json::str(&t.name)),
                    ("cols", Json::num(t.cols as f64)),
                    ("rows", Json::num(t.rows as f64)),
                    ("spacing", Json::num(t.spacing)),
                    ("pattern", Json::num(t.pattern as f64)),
                    ("hidden", Json::num(t.hidden as f64)),
                    ("lstm_hidden", Json::num(t.lstm_hidden as f64)),
                    (
                        "model_seed",
                        Json::str(tsc_obs::flight::u64_to_hex(t.model_seed)),
                    ),
                    (
                        "env_seed",
                        Json::str(tsc_obs::flight::u64_to_hex(t.env_seed)),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("world", Json::str("fleet-forensics-v1")),
            ("tenants", Json::Arr(tenants)),
            (
                "decision_interval",
                Json::num(f64::from(self.decision_interval)),
            ),
            ("horizon", Json::num(f64::from(self.horizon))),
            (
                "fleet_seed",
                Json::str(tsc_obs::flight::u64_to_hex(self.fleet_seed)),
            ),
            ("supervisor", self.supervisor.to_json()),
            (
                "admission_capacity",
                match self.admission_capacity {
                    Some(c) => Json::num(c as f64),
                    None => Json::Null,
                },
            ),
            ("flight_capacity", Json::num(self.flight_capacity as f64)),
            ("flight_cooldown", Json::num(self.flight_cooldown as f64)),
            ("chaos", self.chaos.to_json()),
            ("load", self.load.to_json()),
        ])
    }

    /// Parses a recipe produced by [`to_json`](Self::to_json).
    pub fn from_json(j: &Json) -> Option<FleetWorldSpec> {
        if j.get_str("world") != Some("fleet-forensics-v1") {
            return None;
        }
        let tenants = match j.get("tenants")? {
            Json::Arr(arr) => arr
                .iter()
                .map(|t| {
                    Some(TenantWorldSpec {
                        name: t.get_str("name")?.to_string(),
                        cols: t.get_int("cols")?,
                        rows: t.get_int("rows")?,
                        spacing: t.get_num("spacing")?,
                        pattern: t.get_int("pattern")?,
                        hidden: t.get_int("hidden")?,
                        lstm_hidden: t.get_int("lstm_hidden")?,
                        model_seed: tsc_obs::flight::u64_from_hex(t.get_str("model_seed")?)?,
                        env_seed: tsc_obs::flight::u64_from_hex(t.get_str("env_seed")?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(FleetWorldSpec {
            tenants,
            decision_interval: j.get_int("decision_interval")?,
            horizon: j.get_int("horizon")?,
            fleet_seed: tsc_obs::flight::u64_from_hex(j.get_str("fleet_seed")?)?,
            supervisor: SupervisorConfig::from_json(j.get("supervisor")?)?,
            admission_capacity: match j.get("admission_capacity")? {
                Json::Null => None,
                n => Some(n.as_int()?),
            },
            flight_capacity: j.get_int("flight_capacity")?,
            flight_cooldown: j.get_int("flight_cooldown")?,
            chaos: InfraChaosPlan::from_json(j.get("chaos")?)?,
            load: LoadPlan::from_json(j.get("load")?)?,
        })
    }

    /// Rebuilds the world: the fleet (flight recorder on, chaos plan
    /// installed, replay context stamped) plus each tenant's
    /// environment. Deterministic — two builds from the same spec are
    /// bit-identical.
    pub fn build(&self) -> Result<(FleetRuntime, Vec<TscEnv>), Box<dyn std::error::Error>> {
        self.build_with_flight(Some(FlightConfig {
            capacity: self.flight_capacity,
            cooldown: self.flight_cooldown,
        }))
    }

    /// [`build`](Self::build) with an explicit flight-recorder
    /// override — `None` disables recording entirely (the overhead
    /// gate's control arm; replay itself always records).
    pub fn build_with_flight(
        &self,
        flight: Option<FlightConfig>,
    ) -> Result<(FleetRuntime, Vec<TscEnv>), Box<dyn std::error::Error>> {
        let mut envs = Vec::new();
        let mut specs = Vec::new();
        for t in &self.tenants {
            let grid = Grid::build(GridConfig {
                cols: t.cols,
                rows: t.rows,
                spacing: t.spacing,
            })?;
            let pattern = *FlowPattern::ALL
                .get(t.pattern)
                .ok_or("flow pattern index out of range")?;
            let f = flows(&grid, pattern, &PatternConfig::default())?;
            let scenario = grid.scenario(&t.name, f)?;
            let env = TscEnv::new(
                scenario,
                SimConfig::default(),
                EnvConfig {
                    decision_interval: self.decision_interval,
                    episode_horizon: self.horizon,
                },
                0,
            )?;
            let model = PairUpLight::new(
                &env,
                PairUpLightConfig {
                    hidden: t.hidden,
                    lstm_hidden: t.lstm_hidden,
                    seed: t.model_seed,
                    ..Default::default()
                },
            );
            specs.push(TenantSpec {
                name: t.name.clone(),
                snapshot: model.policy_snapshot(),
                // The canonical forensics world serves with no
                // deadline: wall-clock outcomes cannot replay.
                serve_cfg: ServeConfig::default(),
                checkpoint: None,
                sla: Default::default(),
            });
            envs.push(env);
        }
        let mut fleet = FleetRuntime::new(
            FleetConfig {
                supervisor: self.supervisor,
                seed: self.fleet_seed,
                admission: self
                    .admission_capacity
                    .map(|capacity| AdmissionConfig { capacity }),
                flight,
                ..Default::default()
            },
            specs,
        );
        fleet.set_infra_chaos(self.chaos.clone())?;
        fleet.set_replay_context(self.to_json());
        Ok((fleet, envs))
    }

    /// Drives the canonical forensics loop for `steps` fleet steps:
    /// env `i` starts from `reset(env_seed)`, obs advance by whatever
    /// the fleet answered, offered load comes from the load plan.
    pub fn run(
        &self,
        fleet: &mut FleetRuntime,
        envs: &mut [TscEnv],
        steps: u64,
    ) -> Result<(), Box<dyn std::error::Error>> {
        let mut obs: Vec<_> = envs
            .iter_mut()
            .zip(&self.tenants)
            .map(|(env, t)| env.reset(t.env_seed))
            .collect();
        for step in 0..steps {
            let offered = self.load.offered_all(self.fleet_seed, step, envs.len());
            let views: Vec<&[_]> = obs.iter().map(|o| o.as_slice()).collect();
            let out = fleet.step_with_load(&views, &offered)?;
            for (i, (t, env)) in out.tenants.iter().zip(envs.iter_mut()).enumerate() {
                let s = env.step(&t.actions)?;
                if s.done {
                    return Err("episode horizon too short for the forensics run".into());
                }
                obs[i] = s.obs;
            }
        }
        Ok(())
    }
}

/// One frame-level divergence between the captured and replayed rings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMismatch {
    /// Fleet step of the diverging frame.
    pub step: u64,
    /// Which fields differ ([`FlightFrame::diff_fields`]; `slack_us`
    /// is never listed — wall-clock does not replay). Empty means the
    /// frame exists on one side only.
    pub fields: Vec<&'static str>,
}

/// The outcome of replaying one incident.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Frames in the captured incident.
    pub captured_frames: usize,
    /// Frames the replayed ring held over the same window.
    pub replayed_frames: usize,
    /// Every frame-level divergence (empty on a clean replay).
    pub mismatches: Vec<FrameMismatch>,
    /// Whether the rings' fold digests match (implied by zero
    /// mismatches; a cheap whole-window check).
    pub frames_digest_match: bool,
    /// The causal-correlation pass over the message plane.
    pub causal: Json,
}

impl ReplayReport {
    /// A clean, bit-for-bit replay.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
            && self.frames_digest_match
            && self.captured_frames == self.replayed_frames
    }

    /// The report as JSON (for `BENCH_forensics.json`).
    pub fn to_json(&self) -> Json {
        let mismatches = self
            .mismatches
            .iter()
            .map(|m| {
                Json::obj([
                    ("step", Json::num(m.step as f64)),
                    (
                        "fields",
                        Json::Arr(m.fields.iter().map(|f| Json::str(*f)).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("captured_frames", Json::num(self.captured_frames as f64)),
            ("replayed_frames", Json::num(self.replayed_frames as f64)),
            ("clean", Json::Bool(self.clean())),
            ("mismatches", Json::Arr(mismatches)),
            ("causal", self.causal.clone()),
        ])
    }
}

/// Rebuilds the world from `incident.replay`, re-executes the
/// captured window (steps `0..=incident.step`), and diffs the
/// replayed ring frame-by-frame against the captured one.
///
/// # Errors
///
/// When the incident carries no parsable `fleet-forensics-v1` context,
/// or the rebuilt world fails to construct or run.
pub fn replay_incident(incident: &Incident) -> Result<ReplayReport, Box<dyn std::error::Error>> {
    let spec = FleetWorldSpec::from_json(&incident.replay)
        .ok_or("incident carries no fleet-forensics-v1 replay context")?;
    let (mut fleet, mut envs) = spec.build()?;
    // Re-execute exactly through the last captured frame's step. (An
    // automatic dump's `incident.step` is the in-flight step, a
    // snapshot's is one past it — the frames themselves are the
    // authoritative window either way.)
    let steps = incident.frames.last().map_or(0, |f| f.step + 1);
    spec.run(&mut fleet, &mut envs, steps)?;
    let replayed = fleet
        .tenant_flight(incident.tenant)
        .ok_or("rebuilt fleet has no flight recorder")?
        .frames();
    let causal = causal_report(&fleet, incident);
    Ok(diff_frames(&incident.frames, &replayed, causal))
}

/// Frame-by-frame diff of two rings, aligned on step index.
pub fn diff_frames(
    captured: &[FlightFrame],
    replayed: &[FlightFrame],
    causal: Json,
) -> ReplayReport {
    let mut mismatches = Vec::new();
    let find = |frames: &[FlightFrame], step: u64| frames.iter().find(|f| f.step == step).copied();
    for c in captured {
        match find(replayed, c.step) {
            Some(r) => {
                let fields = c.diff_fields(&r);
                if !fields.is_empty() {
                    mismatches.push(FrameMismatch {
                        step: c.step,
                        fields,
                    });
                }
            }
            None => mismatches.push(FrameMismatch {
                step: c.step,
                fields: Vec::new(),
            }),
        }
    }
    for r in replayed {
        if find(captured, r.step).is_none() {
            mismatches.push(FrameMismatch {
                step: r.step,
                fields: Vec::new(),
            });
        }
    }
    ReplayReport {
        captured_frames: captured.len(),
        replayed_frames: replayed.len(),
        mismatches,
        frames_digest_match: frames_digest(captured) == frames_digest(replayed),
        causal,
    }
}

/// The causal-correlation pass: walks the replayed tenant's message
/// plane upstream. Under pairwise communication, the step-`t` forward
/// consumed messages published at `t − 1`
/// ([`ServeRuntime::last_partners`]), so any frame whose predecessor
/// was NOT policy-served (or panicked) ran on messages produced under
/// degradation — those are the frames to suspect first.
pub fn causal_report(fleet: &FleetRuntime, incident: &Incident) -> Json {
    let runtime: &ServeRuntime = fleet.tenant_runtime(incident.tenant);
    let partners: Vec<Json> = runtime
        .last_partners()
        .iter()
        .enumerate()
        .map(|(agent, &p)| {
            Json::obj([
                ("agent", Json::num(agent as f64)),
                ("upstream_partner", Json::num(p as f64)),
            ])
        })
        .collect();
    let mut degraded_upstream = Vec::new();
    let mut chaos_scoped = 0u64;
    for pair in incident.frames.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        if prev.served_by != 0 || prev.panicked {
            degraded_upstream.push(Json::num(cur.step as f64));
        }
        if cur.chaos_mask != 0 {
            chaos_scoped += 1;
        }
    }
    Json::obj([
        ("tenant", Json::num(incident.tenant as f64)),
        ("partners", Json::Arr(partners)),
        (
            "frames_with_degraded_upstream_messages",
            Json::Arr(degraded_upstream),
        ),
        ("frames_in_chaos_scope", Json::num(chaos_scoped as f64)),
        (
            "final_msg_digest",
            Json::str(tsc_obs::flight::u64_to_hex(runtime.last_message_digest())),
        ),
    ])
}
