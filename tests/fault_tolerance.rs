//! Fault-tolerance integration tests: checkpoint/resume bit-identity,
//! panic-isolated rollout workers, and divergence rollback — the
//! acceptance criteria of the fault-tolerant training stack.

use std::path::PathBuf;

use pairuplight::{
    Checkpoint, CheckpointManager, CheckpointPolicy, FaultPlan, PairUpLight, PairUpLightConfig,
    TrainError,
};
use tsc_nn::LoadError;
use tsc_serve::{ServeConfig, ServeError, ServeRuntime};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{self, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, SimConfig, TscEnv};

fn tiny_env() -> TscEnv {
    let grid = Grid::build(GridConfig {
        cols: 2,
        rows: 2,
        spacing: 150.0,
    })
    .expect("grid");
    let scenario = patterns::grid_scenario(&grid, FlowPattern::Five, &PatternConfig::default())
        .expect("scenario");
    TscEnv::new(
        scenario,
        SimConfig::default(),
        EnvConfig {
            decision_interval: 5,
            episode_horizon: 140,
        },
        0,
    )
    .expect("env")
}

fn small_cfg() -> PairUpLightConfig {
    let mut cfg = PairUpLightConfig {
        hidden: 12,
        lstm_hidden: 12,
        ..Default::default()
    };
    cfg.ppo.epochs = 2;
    cfg.ppo.minibatch = 32;
    cfg
}

fn param_bits(model: &PairUpLight) -> Vec<u32> {
    model
        .parameter_vector()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

fn reward_bits(history: &[pairuplight::TrainEpisode]) -> Vec<u64> {
    history
        .iter()
        .map(|e| e.stats.total_reward.to_bits())
        .collect()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pairuplight_ft_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The headline guarantee: kill training mid-run (via an injected
/// abort, after the due checkpoint is written), resume from the latest
/// checkpoint into a *fresh* learner, finish the schedule — and end
/// with exactly the parameters and episode returns of a run that was
/// never interrupted. Exercised with multi-env parallel rollouts so
/// the whole stack (derived seeds, env-index merge, derived shuffle
/// RNG, Adam timestep) is covered.
#[test]
fn resume_is_bit_identical_to_uninterrupted_run() {
    let mut cfg = small_cfg();
    cfg.num_envs = 2;
    const EPISODES: usize = 8; // 4 rounds of 2 replicas
    const BASE_SEED: u64 = 42;

    // Reference: uninterrupted run through the same loop.
    let mut env = tiny_env();
    let mut reference = PairUpLight::new(&env, cfg);
    let ref_history = reference
        .train_checkpointed(&mut env, EPISODES, BASE_SEED, None, |_| {})
        .expect("reference run");

    // Victim: checkpoints every round, killed after round 1 (= 4
    // episodes done).
    let dir = scratch_dir("resume");
    let manager = CheckpointManager::new(
        &dir,
        CheckpointPolicy {
            every_rounds: 1,
            keep_last: 3,
        },
    )
    .expect("manager");
    let mut env = tiny_env();
    let victim = PairUpLight::new(&env, cfg);
    victim.inject_faults(FaultPlan::new().abort_after_round(1));
    let mut victim = victim;
    let err = victim
        .train_checkpointed(&mut env, EPISODES, BASE_SEED, Some(&manager), |_| {})
        .expect_err("abort fault must fire");
    assert!(matches!(err, TrainError::Aborted { round: 1 }), "{err}");

    // Resume from the newest checkpoint into a fresh learner.
    let (_, latest) = manager.latest().expect("list").expect("checkpoint exists");
    let (mut resumed, base_seed) = PairUpLight::resume(&env, cfg, &latest).expect("resume");
    assert_eq!(base_seed, BASE_SEED, "checkpoint preserves the base seed");
    assert_eq!(resumed.episodes_trained(), 4, "2 rounds x 2 envs done");
    let remaining = EPISODES - resumed.episodes_trained();
    let tail_history = resumed
        .train_checkpointed(&mut env, remaining, base_seed, Some(&manager), |_| {})
        .expect("resumed run");

    assert_eq!(
        reward_bits(&tail_history),
        reward_bits(&ref_history[EPISODES - remaining..]),
        "resumed episode returns must match the uninterrupted run bit-for-bit"
    );
    assert_eq!(
        param_bits(&resumed),
        param_bits(&reference),
        "resumed parameters must match the uninterrupted run bit-for-bit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected rollout-worker panic is caught, the replica is retried
/// with the same derived seed, and the final model is bit-identical to
/// a run where the panic never happened — a worker crash costs one
/// retry, not determinism.
#[test]
fn worker_panic_recovery_is_bit_identical_to_faultless_run() {
    let mut cfg = small_cfg();
    cfg.num_envs = 2;
    let run = |faults: Option<FaultPlan>| {
        let mut env = tiny_env();
        let model = PairUpLight::new(&env, cfg);
        if let Some(plan) = faults {
            model.inject_faults(plan);
        }
        let mut model = model;
        let history = model
            .train_checkpointed(&mut env, 4, 7, None, |_| {})
            .expect("training survives injected panics");
        (reward_bits(&history), param_bits(&model))
    };
    let clean = run(None);
    let faulted = run(Some(FaultPlan::new().panic_worker(0, 1).panic_worker(1, 0)));
    assert_eq!(clean.0, faulted.0, "returns unchanged by worker panics");
    assert_eq!(clean.1, faulted.1, "parameters unchanged by worker panics");
}

/// An injected non-finite parameter (the aftermath of a NaN gradient)
/// trips the divergence sentinel: the round is rolled back to the
/// pre-round snapshot, reseeded, and training completes with finite
/// parameters — no abort, no poisoned model.
#[test]
fn nan_gradient_is_rolled_back_and_training_completes() {
    let cfg = small_cfg();
    let mut env = tiny_env();
    let model = PairUpLight::new(&env, cfg);
    model.inject_faults(FaultPlan::new().nan_gradient(1));
    let mut model = model;
    let history = model
        .train_checkpointed(&mut env, 3, 11, None, |_| {})
        .expect("sentinel rollback must recover the round");
    assert_eq!(history.len(), 3);
    assert_eq!(model.rounds_trained(), 3);
    assert!(
        model.parameter_vector().iter().all(|p| p.is_finite()),
        "no NaN survives the rollback"
    );
}

/// When a worker keeps panicking past the retry budget, training fails
/// with a typed error naming the round and replica instead of crashing.
#[test]
fn exhausted_panic_retries_produce_a_typed_error() {
    let mut cfg = small_cfg();
    cfg.max_round_retries = 1;
    let mut env = tiny_env();
    let model = PairUpLight::new(&env, cfg);
    // First attempt + the single retry both panic.
    model.inject_faults(FaultPlan::new().panic_worker(0, 0).panic_worker(0, 0));
    let mut model = model;
    let err = model
        .train_checkpointed(&mut env, 2, 3, None, |_| {})
        .expect_err("retry budget is exhausted");
    assert!(
        matches!(
            err,
            TrainError::WorkerPanic {
                round: 0,
                env: 0,
                retries: 1,
            }
        ),
        "{err}"
    );
}

/// A corrupted or truncated checkpoint is rejected up front — and the
/// rejection leaves the learner's weights untouched (all-or-nothing
/// restore). A checkpoint from a different configuration is likewise
/// refused via the fingerprint.
#[test]
fn damaged_or_mismatched_checkpoints_are_rejected_without_side_effects() {
    let cfg = small_cfg();
    let mut env = tiny_env();
    let mut model = PairUpLight::new(&env, cfg);
    model.train_episode(&mut env, 1).expect("episode");
    let dir = scratch_dir("reject");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ck.txt");
    model.save_checkpoint(&path, 0).expect("save");

    let mut other_cfg = small_cfg();
    other_cfg.seed = 5;
    let mut victim = PairUpLight::new(&env, other_cfg);
    victim.train_episode(&mut env, 2).expect("episode");
    let before = param_bits(&victim);

    // Fingerprint mismatch (different seed ⇒ different config).
    let err = victim.load_checkpoint(&path).expect_err("wrong config");
    assert!(err.to_string().contains("fingerprint"), "{err}");
    assert_eq!(param_bits(&victim), before, "reject leaves weights alone");

    // Corruption: flip a digit somewhere inside the body.
    let text = std::fs::read_to_string(&path).expect("read");
    let corrupted = text.replacen("0.9", "0.8", 1);
    assert_ne!(corrupted, text, "corruption target must exist");
    std::fs::write(&path, corrupted).expect("write");
    let mut same_cfg_model = PairUpLight::new(&env, cfg);
    let before = param_bits(&same_cfg_model);
    let err = same_cfg_model
        .load_checkpoint(&path)
        .expect_err("corrupt checkpoint");
    assert!(err.to_string().contains("checksum"), "{err}");
    assert_eq!(param_bits(&same_cfg_model), before);

    // Truncation.
    std::fs::write(&path, &text[..text.len() / 2]).expect("write");
    assert!(same_cfg_model.load_checkpoint(&path).is_err());
    assert_eq!(param_bits(&same_cfg_model), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksum proves the bytes are intact, not that the model is sane.
/// A checkpoint holding one NaN weight, written by the normal writer so
/// its checksum trailer is valid, is refused by every restore path —
/// `load_checkpoint`, `ServeRuntime::from_checkpoint` and
/// `begin_reload` — with a typed non-finite error, and the learner and
/// the live serving policy stay bit-for-bit as they were.
#[test]
fn non_finite_checkpoint_is_rejected_by_every_restore_path() {
    let cfg = small_cfg();
    let mut env = tiny_env();
    let mut model = PairUpLight::new(&env, cfg);
    model.train_episode(&mut env, 1).expect("episode");
    let dir = scratch_dir("non_finite");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (good, bad) = (dir.join("good.txt"), dir.join("bad.txt"));
    model.save_checkpoint(&good, 0).expect("save");
    let mut ck = Checkpoint::read(&good).expect("read");
    let params = &mut ck.bundles[0].0;
    let id = params.ids().next().expect("a weight tensor");
    params.value_mut(id).data_mut()[0] = f32::NAN;
    ck.write_atomic(&bad).expect("write");
    Checkpoint::read(&bad).expect("the checksum is valid");
    let non_finite = |e: &TrainError| matches!(e, TrainError::Load(LoadError::NonFinite(_)));
    // The learner's full state (weights, Adam, counters) as text.
    let state = |m: &PairUpLight| {
        let path = dir.join("state.txt");
        m.save_checkpoint(&path, 0).expect("save");
        std::fs::read_to_string(&path).expect("read")
    };

    let mut learner = PairUpLight::new(&env, cfg);
    learner.train_episode(&mut env, 2).expect("episode");
    let before = state(&learner);
    let err = learner.load_checkpoint(&bad).expect_err("NaN weight");
    assert!(non_finite(&err), "{err}");
    assert_eq!(state(&learner), before, "reject leaves the learner alone");

    let err = ServeRuntime::from_checkpoint(&env, cfg, ServeConfig::default(), &bad)
        .map(|_| ())
        .expect_err("NaN weight");
    assert!(
        matches!(&err, ServeError::Load(e) if non_finite(e)),
        "{err}"
    );

    let mut serve = ServeRuntime::from_checkpoint(&env, cfg, ServeConfig::default(), &good)
        .expect("good checkpoint");
    let live = |s: &ServeRuntime| -> Vec<u32> {
        let weights = s.policy().parameter_vector();
        weights.iter().map(|w| w.to_bits()).collect()
    };
    let before = live(&serve);
    let err = serve.begin_reload(&bad).expect_err("NaN weight");
    assert!(
        matches!(&err, ServeError::Load(e) if non_finite(e)),
        "{err}"
    );
    assert!(!serve.reload_in_flight(), "nothing staged");
    assert_eq!(live(&serve), before, "live policy untouched");
    let step = serve.serve_step(&env.reset(1)).expect("serve");
    assert!(step.degraded.is_none(), "serving continues undegraded");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk-full failure torn mid-checkpoint-write must not damage the
/// previous checkpoint: the atomic temp-then-rename protocol leaves
/// the torn bytes in a `.tmp` sibling, the published file stays the
/// older, fully valid checkpoint, and training resumes from it.
#[test]
fn torn_checkpoint_write_leaves_previous_checkpoint_loadable() {
    let cfg = small_cfg();
    let dir = scratch_dir("torn");
    let manager = CheckpointManager::new(
        &dir,
        CheckpointPolicy {
            every_rounds: 1,
            keep_last: 3,
        },
    )
    .expect("manager");
    let mut env = tiny_env();
    let model = PairUpLight::new(&env, cfg);
    // Rounds 0 and 1 checkpoint cleanly; round 2's write tears.
    model.inject_faults(FaultPlan::new().fail_checkpoint_write(2));
    let mut model = model;
    let err = model
        .train_checkpointed(&mut env, 4, 21, Some(&manager), |_| {})
        .expect_err("injected disk-full must surface");
    assert!(matches!(err, TrainError::Io(_)), "{err}");

    // The torn temp file exists and is NOT a valid checkpoint...
    let round3 = manager.path_for(3);
    let torn = PathBuf::from(format!("{}.tmp", round3.display()));
    assert!(torn.exists(), "torn write leaves a temp file behind");
    assert!(
        Checkpoint::read(&torn).is_err(),
        "half a checkpoint must not validate"
    );
    // ...the failed round's final file was never published...
    assert!(!round3.exists(), "rename must not have happened");
    // ...and the previous checkpoint is intact, loadable, and resumes.
    let (round, latest) = manager.latest().expect("list").expect("exists");
    assert_eq!(round, 2, "latest published checkpoint is the prior round");
    let (mut resumed, base_seed) = PairUpLight::resume(&env, cfg, &latest).expect("resume");
    assert_eq!(base_seed, 21);
    let remaining = 4 - resumed.episodes_trained();
    resumed
        .train_checkpointed(&mut env, remaining, base_seed, Some(&manager), |_| {})
        .expect("resume completes after the disk recovers");
    assert_eq!(resumed.episodes_trained(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Periodic checkpointing honors the retention policy: only the newest
/// `keep_last` files survive, and the newest is loadable.
#[test]
fn retention_keeps_only_the_newest_checkpoints() {
    let cfg = small_cfg();
    let dir = scratch_dir("retention");
    let manager = CheckpointManager::new(
        &dir,
        CheckpointPolicy {
            every_rounds: 1,
            keep_last: 2,
        },
    )
    .expect("manager");
    let mut env = tiny_env();
    let mut model = PairUpLight::new(&env, cfg);
    model
        .train_checkpointed(&mut env, 5, 0, Some(&manager), |_| {})
        .expect("train");
    let kept: Vec<u64> = manager
        .list()
        .expect("list")
        .into_iter()
        .map(|(round, _)| round)
        .collect();
    assert_eq!(kept, vec![4, 5], "only the two newest rounds survive");
    let (_, latest) = manager.latest().expect("list").expect("exists");
    let (resumed, _) = PairUpLight::resume(&env, cfg, &latest).expect("resume");
    assert_eq!(resumed.episodes_trained(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a over the bits of every trainable scalar.
fn param_digest(model: &PairUpLight) -> u64 {
    let mut h = tsc_obs::det::Fnv64::new();
    for bits in param_bits(model) {
        h.word(u64::from(bits));
    }
    h.finish()
}

/// Pins `train`'s per-call seed schedule to digests recorded before
/// `train` and `train_checkpointed` shared one round loop: with K = 1
/// episode `i` of a call is seeded `base_seed + i`, with K > 1 rounds
/// are numbered from 0 within the call. Each configuration calls
/// `train` twice in a row with the same base seed, so the second call
/// only matches if the schedule restarts at the call's own origin
/// instead of continuing from the learner's lifetime counters.
#[test]
fn train_seed_schedule_matches_recorded_digests() {
    let digests = |num_envs: usize| {
        let mut cfg = small_cfg();
        cfg.num_envs = num_envs;
        let mut env = tiny_env();
        let mut model = PairUpLight::new(&env, cfg);
        let mut out = Vec::new();
        for _ in 0..2 {
            model.train(&mut env, 3, 17, |_| {}).expect("train");
            out.push(param_digest(&model));
        }
        out
    };
    assert_eq!(digests(1), [0x70bc_8771_6a5c_9700, 0xa940_ffeb_c841_e7c0]);
    assert_eq!(digests(2), [0x8e83_97a6_0050_aee4, 0xba72_6454_115b_f015]);
}
