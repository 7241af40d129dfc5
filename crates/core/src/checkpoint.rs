//! Full-training-state checkpoints: format, atomic writes, retention.
//!
//! A checkpoint captures everything [`PairUpLight`](crate::PairUpLight)
//! needs to continue training **bit-for-bit identically** to a run that
//! was never interrupted: every bundle's weights, the Adam moments and
//! timestep (bias correction depends on it), the episode/round
//! counters that drive seed derivation and ε decay, the base seed of
//! the interrupted `train` call, and a fingerprint of the
//! configuration so a checkpoint cannot be restored into a
//! differently-configured learner.
//!
//! The on-disk format extends the `tsc-nn` text formats:
//!
//! ```text
//! pairuplight-checkpoint v1 bundles=N
//! fingerprint <16 hex digits>
//! episodes <count>
//! rounds <count>
//! base-seed <u64>
//! tsc-nn-params v1     ⎫
//! …                    ⎬ repeated once per bundle
//! tsc-nn-adam v1       ⎪
//! …                    ⎭
//! checksum <body bytes> <16 hex digits>
//! ```
//!
//! The trailer makes torn or corrupted files detectable: the checksum
//! is FNV-1a-64 over every byte before the trailer line, and the byte
//! count catches truncation even when the cut lands on a line
//! boundary. Writes go to a temporary sibling file first and are
//! `rename`d into place, so a crash mid-write never destroys the
//! previous good checkpoint.

use std::io;
use std::path::{Path, PathBuf};

use tsc_nn::{load_adam, load_params, save_adam, save_params, Adam, LoadError, Params};

/// FNV-1a 64-bit hash — the checksum of the checkpoint trailer and the
/// configuration fingerprint (corruption detection, not cryptography).
pub use tsc_obs::det::fnv1a64;

/// The configuration fingerprint written into every checkpoint
/// (FNV-1a-64 over the configuration's debug representation). Public
/// so checkpoint *consumers* — the serving runtime, diagnostics — can
/// validate compatibility the same way the trainer does.
pub fn config_fingerprint(cfg: &crate::config::PairUpLightConfig) -> u64 {
    fnv1a64(format!("{cfg:?}").as_bytes())
}

/// The serializable full training state of one learner.
#[derive(Debug)]
pub struct Checkpoint {
    /// FNV-1a-64 of the learner configuration's debug representation;
    /// restore refuses a checkpoint whose fingerprint disagrees.
    pub fingerprint: u64,
    /// Episodes completed when the checkpoint was taken.
    pub episodes_trained: usize,
    /// PPO update rounds completed when the checkpoint was taken.
    pub rounds_trained: u64,
    /// The `base_seed` of the interrupted training call, so resume can
    /// continue the same seed sequence.
    pub base_seed: u64,
    /// Per-bundle weights and full optimizer state.
    pub bundles: Vec<(Params, Adam)>,
}

impl Checkpoint {
    /// Serializes to the v1 text format, checksum trailer included.
    pub fn encode(&self) -> String {
        let mut body = format!(
            "pairuplight-checkpoint v1 bundles={}\n\
             fingerprint {:016x}\n\
             episodes {}\n\
             rounds {}\n\
             base-seed {}\n",
            self.bundles.len(),
            self.fingerprint,
            self.episodes_trained,
            self.rounds_trained,
            self.base_seed,
        );
        let mut buf = Vec::new();
        for (params, opt) in &self.bundles {
            save_params(params, &mut buf).expect("write to Vec cannot fail");
            save_adam(opt, &mut buf).expect("write to Vec cannot fail");
        }
        body.push_str(std::str::from_utf8(&buf).expect("text format is UTF-8"));
        let sum = fnv1a64(body.as_bytes());
        body.push_str(&format!("checksum {} {:016x}\n", body.len(), sum));
        body
    }

    /// Parses a checkpoint, verifying the checksum trailer first and
    /// every section after — nothing is returned unless the whole file
    /// is valid.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Format`] for truncation, corruption, or any
    /// malformed section.
    pub fn decode(text: &str) -> Result<Self, LoadError> {
        // Verify the trailer before trusting anything else.
        let trailer_start = text
            .rfind("\nchecksum ")
            .map(|i| i + 1)
            .ok_or_else(|| LoadError::Format("missing checksum trailer".into()))?;
        let (body, trailer) = text.split_at(trailer_start);
        let mut parts = trailer.split_whitespace().skip(1);
        let nbytes: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LoadError::Format("bad checksum byte count".into()))?;
        let sum: u64 = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| LoadError::Format("bad checksum value".into()))?;
        if body.len() != nbytes {
            return Err(LoadError::Format(format!(
                "checkpoint truncated: trailer claims {nbytes} bytes, found {}",
                body.len()
            )));
        }
        if fnv1a64(body.as_bytes()) != sum {
            return Err(LoadError::Format(
                "checkpoint corrupted: checksum mismatch".into(),
            ));
        }

        let mut lines = body.lines();
        let header = lines
            .next()
            .ok_or_else(|| LoadError::Format("empty checkpoint".into()))?;
        let num_bundles: usize = header
            .strip_prefix("pairuplight-checkpoint v1 bundles=")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| LoadError::Format(format!("bad checkpoint header {header:?}")))?;
        let mut field = |key: &str| -> Result<String, LoadError> {
            let line = lines
                .next()
                .ok_or_else(|| LoadError::Format(format!("missing {key} line")))?;
            line.strip_prefix(key)
                .map(|s| s.trim().to_string())
                .ok_or_else(|| LoadError::Format(format!("expected {key} line, found {line:?}")))
        };
        let fingerprint = u64::from_str_radix(&field("fingerprint")?, 16)
            .map_err(|e| LoadError::Format(format!("bad fingerprint: {e}")))?;
        let episodes_trained = field("episodes")?
            .parse()
            .map_err(|e| LoadError::Format(format!("bad episode count: {e}")))?;
        let rounds_trained = field("rounds")?
            .parse()
            .map_err(|e| LoadError::Format(format!("bad round count: {e}")))?;
        let base_seed = field("base-seed")?
            .parse()
            .map_err(|e| LoadError::Format(format!("bad base seed: {e}")))?;

        // Split the remainder into tsc-nn sections and parse them all
        // before assembling anything.
        let mut sections: Vec<(bool, String)> = Vec::new();
        for line in lines {
            match line.trim() {
                "tsc-nn-params v1" => sections.push((false, String::new())),
                "tsc-nn-adam v1" => sections.push((true, String::new())),
                _ => {}
            }
            let Some(last) = sections.last_mut() else {
                return Err(LoadError::Format(format!(
                    "unexpected content before first section: {line:?}"
                )));
            };
            last.1.push_str(line);
            last.1.push('\n');
        }
        if sections.len() != 2 * num_bundles {
            return Err(LoadError::Format(format!(
                "expected {} sections for {num_bundles} bundles, found {}",
                2 * num_bundles,
                sections.len()
            )));
        }
        let mut bundles = Vec::with_capacity(num_bundles);
        for pair in sections.chunks(2) {
            let [(false, params_text), (true, adam_text)] = pair else {
                return Err(LoadError::Format(
                    "sections must alternate params, adam".into(),
                ));
            };
            let params = load_params(params_text.as_bytes())?;
            let opt = load_adam(adam_text.as_bytes())?;
            if !opt.matches(&params) {
                return Err(LoadError::Format(
                    "optimizer moments do not match their bundle's parameters".into(),
                ));
            }
            bundles.push((params, opt));
        }
        Ok(Checkpoint {
            fingerprint,
            episodes_trained,
            rounds_trained,
            base_seed,
            bundles,
        })
    }

    /// Writes the checkpoint to `path` atomically: the encoded text
    /// goes to a temporary sibling first, then a `rename` publishes it.
    /// A crash at any point leaves either the old file or the new one,
    /// never a torn mix.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_atomic(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)
    }

    /// Simulates a torn checkpoint write (disk full mid-write): half of
    /// the encoded text lands in the temporary sibling of `path`, the
    /// rename never happens, and the error the real write would have
    /// surfaced is returned. Whatever was previously at `path` is left
    /// untouched — the property
    /// [`write_atomic`](Self::write_atomic)'s temp-then-rename protocol
    /// exists to guarantee, and which the fault-tolerance tests pin.
    pub fn write_torn(&self, path: impl AsRef<Path>) -> io::Error {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let encoded = self.encode();
        let half = &encoded.as_bytes()[..encoded.len() / 2];
        // Best-effort: if even the torn write fails, the injected error
        // below still reports the fault.
        let _ = std::fs::write(&tmp, half);
        io::Error::other("injected disk-full during checkpoint write")
    }

    /// Reads and fully validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Io`] on filesystem failures and
    /// [`LoadError::Format`] on any validation failure.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, LoadError> {
        let text = std::fs::read_to_string(path).map_err(LoadError::Io)?;
        Self::decode(&text)
    }
}

/// When to checkpoint and how many files to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a checkpoint every this many completed rounds (0 disables
    /// periodic checkpoints; a final one is still written when training
    /// finishes or aborts cleanly).
    pub every_rounds: u64,
    /// Keep at most this many checkpoint files; older ones are pruned
    /// after each successful write. 0 means keep everything.
    pub keep_last: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_rounds: 10,
            keep_last: 3,
        }
    }
}

/// Owns a checkpoint directory: naming, discovery, and retention.
#[derive(Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    policy: CheckpointPolicy,
}

impl CheckpointManager {
    /// Creates a manager over `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>, policy: CheckpointPolicy) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointManager { dir, policy })
    }

    /// The retention/frequency policy.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether a checkpoint is due after `rounds_trained` completed
    /// rounds.
    pub fn due(&self, rounds_trained: u64) -> bool {
        self.policy.every_rounds > 0
            && rounds_trained > 0
            && rounds_trained.is_multiple_of(self.policy.every_rounds)
    }

    /// Canonical file path for the checkpoint taken after `round`
    /// rounds. Zero-padded so lexicographic order is round order.
    pub fn path_for(&self, round: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{round:010}.txt"))
    }

    /// All checkpoints in the directory, ascending by round.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(round) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".txt"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((round, entry.path()));
            }
        }
        out.sort_unstable_by_key(|&(round, _)| round);
        Ok(out)
    }

    /// The newest checkpoint, if any.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn latest(&self) -> io::Result<Option<(u64, PathBuf)>> {
        Ok(self.list()?.pop())
    }

    /// Deletes all but the newest `keep_last` checkpoints and returns
    /// the removed paths. No-op when `keep_last` is 0.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn prune(&self) -> io::Result<Vec<PathBuf>> {
        if self.policy.keep_last == 0 {
            return Ok(Vec::new());
        }
        let all = self.list()?;
        let excess = all.len().saturating_sub(self.policy.keep_last);
        let mut removed = Vec::with_capacity(excess);
        for (_, path) in all.into_iter().take(excess) {
            std::fs::remove_file(&path)?;
            removed.push(path);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_nn::Tensor;

    fn sample() -> Checkpoint {
        let mut params = Params::new();
        params.add("w", Tensor::from_rows(&[&[1.5, -2.25], &[0.0, 3.125]]));
        params.add("b", Tensor::from_rows(&[&[0.5, f32::MIN_POSITIVE]]));
        let opt = Adam::new(&params, 3e-4);
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            episodes_trained: 12,
            rounds_trained: 6,
            base_seed: 99,
            bundles: vec![(params, opt)],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ck = sample();
        let restored = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(restored.fingerprint, ck.fingerprint);
        assert_eq!(restored.episodes_trained, 12);
        assert_eq!(restored.rounds_trained, 6);
        assert_eq!(restored.base_seed, 99);
        assert_eq!(restored.bundles.len(), 1);
        let (p, q) = (&ck.bundles[0].0, &restored.bundles[0].0);
        for (a, b) in p.ids().zip(q.ids()) {
            assert_eq!(p.value(a), q.value(b));
        }
        assert_eq!(restored.bundles[0].1.timestep(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let text = ck_text();
        // Flip one digit inside a tensor value.
        let corrupted = text.replacen("1.5", "1.6", 1);
        assert_ne!(corrupted, text);
        let err = Checkpoint::decode(&corrupted).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncation_is_detected() {
        let text = ck_text();
        // Cut on a line boundary so only the byte count can catch it.
        let cut = text[..text.len() / 2].rfind('\n').unwrap() + 1;
        let truncated = format!(
            "{}{}",
            &text[..cut],
            text.lines().last().unwrap() // keep a checksum trailer
        );
        assert!(Checkpoint::decode(&truncated).is_err());
        assert!(Checkpoint::decode("").is_err());
        assert!(Checkpoint::decode("no trailer at all\n").is_err());
    }

    fn ck_text() -> String {
        sample().encode()
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("pairuplight_ck_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.txt");
        sample().write_atomic(&path).unwrap();
        let restored = Checkpoint::read(&path).unwrap();
        assert_eq!(restored.base_seed, 99);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manager_prunes_to_keep_last() {
        let dir = std::env::temp_dir().join("pairuplight_ck_prune_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = CheckpointManager::new(
            &dir,
            CheckpointPolicy {
                every_rounds: 2,
                keep_last: 2,
            },
        )
        .unwrap();
        assert!(!mgr.due(0));
        assert!(!mgr.due(1));
        assert!(mgr.due(2));
        assert!(mgr.due(4));
        for round in [2, 4, 6, 8] {
            sample().write_atomic(mgr.path_for(round)).unwrap();
        }
        let removed = mgr.prune().unwrap();
        assert_eq!(removed.len(), 2);
        let kept: Vec<u64> = mgr.list().unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(kept, vec![6, 8]);
        assert_eq!(mgr.latest().unwrap().unwrap().0, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
