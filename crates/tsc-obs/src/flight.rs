//! The flight recorder: a fixed-capacity per-tenant ring of compact
//! serve-step frames, plus the self-describing JSONL incident file it
//! dumps when something goes wrong.
//!
//! A [`FlightRecorder`] preallocates its whole ring at construction
//! and records one [`FlightFrame`] per serve step with **zero
//! allocation in steady state** — frames are `Copy` PODs written into
//! the preallocated buffer; when the ring is full the oldest frame is
//! overwritten. Recording is observation-only: nothing here touches an
//! RNG stream or a decision, so a fleet with recorders attached is
//! bit-identical to one without (pinned by a tier-1 digest test in
//! `tsc-serve`).
//!
//! When a trigger fires ([`FlightTrigger`]: a caught panic, a breaker
//! opening, a quarantine entry, a shed-cap hit, or an operator
//! `snapshot()`), the serving layer wraps the ring's contents plus its
//! **replay context** — everything needed to reconstruct the world
//! deterministically (scenario text + fingerprint, seeds, chaos /
//! infra-chaos / load plans, config fingerprints) — into an
//! [`Incident`] and writes it with [`write_incident`] as incident file
//! format v1: one JSONL file whose first line is a self-describing
//! header, second line the replay context, and every following line
//! one frame. [`read_incident`] reads it back (torn tails are
//! tolerated, like every JSONL reader here); the `forensics` bin in
//! `tsc-bench` rebuilds the world from the context, re-executes the
//! captured window, and diffs it frame-by-frame against the recording.
//!
//! `u64` digests, seeds, and fingerprints are serialized as `0x…` hex
//! strings — JSON numbers are `f64` and would silently round anything
//! past 2⁵³.

use std::io;
use std::path::Path;

use crate::det::Fnv64;
use crate::events::{read_jsonl, EventSink};
use crate::json::Json;

/// Incident file format version written by [`write_incident`].
pub const INCIDENT_VERSION: u32 = 1;

/// Sentinel for [`FlightFrame::slack_us`]: the step ran with no
/// deadline configured.
pub const NO_DEADLINE: i64 = i64::MIN;

/// One serve step of one tenant, compacted to fixed-size fields so the
/// ring never allocates. Digests stand in for the full vectors (the
/// joint observation, the delivered message plane, the action vector);
/// a forensics replay regenerates the vectors themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightFrame {
    /// Fleet step index.
    pub step: u64,
    /// FNV-1a digest of the tenant's joint observation.
    pub obs_digest: u64,
    /// FNV-1a digest of the delivered partner-message plane (what the
    /// policy actually consumed this step).
    pub msg_digest: u64,
    /// FNV-1a digest of the chosen action vector.
    pub actions_digest: u64,
    /// Who answered ([`ServedBy`] dense index).
    pub served_by: u8,
    /// Admission service level (dense index; 0 = Full).
    pub level: u8,
    /// Supervisor state after the step (dense index).
    pub state: u8,
    /// Whether the policy step panicked (caught and isolated).
    pub panicked: bool,
    /// Offered load (requests) admission saw for this tenant.
    pub offered: u64,
    /// Active infra-chaos faults: bit `i` set when fault `i` of the
    /// installed plan had this tenant in scope at this step.
    pub chaos_mask: u32,
    /// Deadline slack in microseconds (budget − spent; negative =
    /// overrun). [`NO_DEADLINE`] when no deadline was configured.
    /// Wall-clock derived, so **excluded** from [`digest`]
    /// (Self::digest) and from replay diffs.
    pub slack_us: i64,
}

impl FlightFrame {
    /// FNV-1a digest over every deterministic field — everything
    /// except `slack_us`, which is wall-clock derived and therefore
    /// not replayable.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for v in [
            self.step,
            self.obs_digest,
            self.msg_digest,
            self.actions_digest,
            u64::from(self.served_by),
            u64::from(self.level),
            u64::from(self.state),
            u64::from(self.panicked),
            self.offered,
            u64::from(self.chaos_mask),
        ] {
            h.write_u64(v);
        }
        h.finish()
    }

    /// The deterministic fields where this frame differs from `other`
    /// (`slack_us` deliberately not compared). Empty = replay-equal.
    pub fn diff_fields(&self, other: &FlightFrame) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut check = |name, same: bool| {
            if !same {
                out.push(name);
            }
        };
        check("step", self.step == other.step);
        check("obs_digest", self.obs_digest == other.obs_digest);
        check("msg_digest", self.msg_digest == other.msg_digest);
        check(
            "actions_digest",
            self.actions_digest == other.actions_digest,
        );
        check("served_by", self.served_by == other.served_by);
        check("level", self.level == other.level);
        check("state", self.state == other.state);
        check("panicked", self.panicked == other.panicked);
        check("offered", self.offered == other.offered);
        check("chaos_mask", self.chaos_mask == other.chaos_mask);
        out
    }

    /// The frame as one incident-file JSONL record
    /// (`"type": "frame"`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::str("frame")),
            ("step", Json::num(self.step as f64)),
            ("obs", Json::str(u64_to_hex(self.obs_digest))),
            ("msg", Json::str(u64_to_hex(self.msg_digest))),
            ("actions", Json::str(u64_to_hex(self.actions_digest))),
            ("served_by", Json::num(f64::from(self.served_by))),
            ("level", Json::num(f64::from(self.level))),
            ("state", Json::num(f64::from(self.state))),
            ("panicked", Json::Bool(self.panicked)),
            ("offered", Json::num(self.offered as f64)),
            ("chaos_mask", Json::num(f64::from(self.chaos_mask))),
            (
                "slack_us",
                if self.slack_us == NO_DEADLINE {
                    Json::Null
                } else {
                    Json::num(self.slack_us as f64)
                },
            ),
        ])
    }

    /// Parses a `"type": "frame"` record. `None` on shape mismatch.
    pub fn from_json(j: &Json) -> Option<FlightFrame> {
        Some(FlightFrame {
            step: j.get_int("step")?,
            obs_digest: u64_from_hex(j.get_str("obs")?)?,
            msg_digest: u64_from_hex(j.get_str("msg")?)?,
            actions_digest: u64_from_hex(j.get_str("actions")?)?,
            served_by: j.get_int("served_by")?,
            level: j.get_int("level")?,
            state: j.get_int("state")?,
            panicked: matches!(j.get("panicked"), Some(Json::Bool(true))),
            offered: j.get_int("offered")?,
            chaos_mask: j.get_int("chaos_mask")?,
            slack_us: match j.get("slack_us") {
                Some(Json::Num(n)) => *n as i64,
                _ => NO_DEADLINE,
            },
        })
    }
}

/// A fixed-capacity ring of [`FlightFrame`]s. The buffer is fully
/// preallocated at construction; [`record`](Self::record) never
/// allocates, and once full each new frame overwrites exactly the
/// oldest one (property-tested in `tests/proptests.rs`).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<FlightFrame>,
    /// Next write position.
    head: usize,
    /// Live frames (≤ capacity).
    len: usize,
    /// Frames ever recorded (monotone).
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` frames (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            buf: vec![FlightFrame::default(); capacity],
            head: 0,
            len: 0,
            recorded: 0,
        }
    }

    /// Ring capacity in frames.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Frames currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded (or the ring was cleared).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Frames ever recorded through this recorder.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Frames overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.len as u64
    }

    /// Appends one frame, overwriting the oldest when full. Never
    /// allocates.
    pub fn record(&mut self, frame: FlightFrame) {
        self.buf[self.head] = frame;
        self.head = (self.head + 1) % self.buf.len();
        self.len = (self.len + 1).min(self.buf.len());
        self.recorded += 1;
    }

    /// The held frames, oldest first (allocates — dump path only).
    pub fn frames(&self) -> Vec<FlightFrame> {
        let cap = self.buf.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(|i| self.buf[(start + i) % cap]).collect()
    }

    /// Empties the ring (capacity and the `recorded` total persist).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// What fired an incident dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightTrigger {
    /// The tenant's policy step panicked (caught and isolated).
    Panic,
    /// The tenant's circuit breaker opened.
    BreakerOpen,
    /// The tenant entered quarantine.
    Quarantine,
    /// Admission shed the tenant while its shed budget was exhausted
    /// (or the first shed of a tenant whose SLA forbids shedding).
    ShedCap,
    /// An operator asked for a dump explicitly.
    Snapshot,
}

impl FlightTrigger {
    /// Stable wire name (the `"trigger"` field of the header record).
    pub fn as_str(self) -> &'static str {
        match self {
            FlightTrigger::Panic => "panic",
            FlightTrigger::BreakerOpen => "breaker_open",
            FlightTrigger::Quarantine => "quarantine",
            FlightTrigger::ShedCap => "shed_cap",
            FlightTrigger::Snapshot => "snapshot",
        }
    }

    /// Parses a wire name back. `None` for unknown names.
    pub fn parse(s: &str) -> Option<FlightTrigger> {
        Some(match s {
            "panic" => FlightTrigger::Panic,
            "breaker_open" => FlightTrigger::BreakerOpen,
            "quarantine" => FlightTrigger::Quarantine,
            "shed_cap" => FlightTrigger::ShedCap,
            "snapshot" => FlightTrigger::Snapshot,
            _ => return None,
        })
    }
}

/// One dumped incident: the ring's frames at trigger time plus the
/// replay context the serving layer attached. The context's shape is
/// owned by the dumper (the fleet writes scenario text, seeds, and
/// plans — see `tsc-serve`); this layer only promises to round-trip
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Tenant index within the fleet.
    pub tenant: usize,
    /// Operator-facing tenant name.
    pub tenant_name: String,
    /// What fired the dump.
    pub trigger: FlightTrigger,
    /// Fleet step at which the trigger fired.
    pub step: u64,
    /// Everything needed to rebuild the world deterministically.
    pub replay: Json,
    /// The ring's frames at trigger time, oldest first.
    pub frames: Vec<FlightFrame>,
}

impl Incident {
    /// Folds every frame's [`FlightFrame::digest`] into one ring
    /// digest (order-sensitive).
    pub fn frames_digest(&self) -> u64 {
        frames_digest(&self.frames)
    }
}

/// Folds every frame's [`FlightFrame::digest`] into one ring digest
/// (byte-wise FNV-1a, order-sensitive) — [`Incident::frames_digest`]
/// over a bare frame slice, for comparing a replay to a recording.
pub fn frames_digest(frames: &[FlightFrame]) -> u64 {
    let mut h = Fnv64::new();
    for f in frames {
        h.write_u64(f.digest());
    }
    h.finish()
}

/// Writes `incident` to `path` as incident file format v1 (see the
/// module docs for the line layout).
///
/// # Errors
///
/// Propagates filesystem failures; a torn write leaves at most one
/// torn tail line, which [`read_incident`] skips.
pub fn write_incident(path: impl AsRef<Path>, incident: &Incident) -> io::Result<()> {
    let mut sink = EventSink::create(path)?;
    sink.emit(&Json::obj([
        ("type", Json::str("incident")),
        ("version", Json::num(f64::from(INCIDENT_VERSION))),
        ("tenant", Json::num(incident.tenant as f64)),
        ("name", Json::str(incident.tenant_name.clone())),
        ("trigger", Json::str(incident.trigger.as_str())),
        ("step", Json::num(incident.step as f64)),
        ("frames", Json::num(incident.frames.len() as f64)),
    ]))?;
    sink.emit(&Json::obj([
        ("type", Json::str("replay_context")),
        ("context", incident.replay.clone()),
    ]))?;
    for frame in &incident.frames {
        sink.emit(&frame.to_json())?;
    }
    Ok(())
}

/// Reads an incident file written by [`write_incident`]. A torn tail
/// line (crash mid-dump) is skipped; missing header or replay context
/// is a format error.
///
/// # Errors
///
/// Filesystem failures, and `InvalidData`-style errors for files that
/// are not incident format v1.
pub fn read_incident(path: impl AsRef<Path>) -> io::Result<Incident> {
    let (records, _warnings) = read_jsonl(path)?;
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let header = records
        .first()
        .filter(|r| r.get_str("type") == Some("incident"))
        .ok_or_else(|| bad("not an incident file: missing header record"))?;
    let version = header.get_int::<u32>("version").unwrap_or(0);
    if version != INCIDENT_VERSION {
        return Err(bad(&format!(
            "unsupported incident version {version} (expected {INCIDENT_VERSION})"
        )));
    }
    let context = records
        .get(1)
        .filter(|r| r.get_str("type") == Some("replay_context"))
        .and_then(|r| r.get("context"))
        .ok_or_else(|| bad("incident file missing replay_context record"))?;
    let frames = records[2..]
        .iter()
        .filter(|r| r.get_str("type") == Some("frame"))
        .map(FlightFrame::from_json)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("malformed frame record"))?;
    Ok(Incident {
        tenant: header
            .get_int("tenant")
            .ok_or_else(|| bad("malformed incident header: tenant"))?,
        tenant_name: header.get_str("name").unwrap_or("").to_string(),
        trigger: header
            .get_str("trigger")
            .and_then(FlightTrigger::parse)
            .ok_or_else(|| bad("unknown incident trigger"))?,
        step: header
            .get_int("step")
            .ok_or_else(|| bad("malformed incident header: step"))?,
        replay: context.clone(),
        frames,
    })
}

/// Renders a `u64` as a `0x…` hex string (exact — JSON numbers are
/// `f64` and round past 2⁵³).
pub fn u64_to_hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// Parses [`u64_to_hex`] output (leading `0x` optional).
pub fn u64_from_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(step: u64) -> FlightFrame {
        FlightFrame {
            step,
            obs_digest: 0xdead_beef ^ step,
            msg_digest: 0x1234_5678_9abc_def0u64.wrapping_add(step),
            actions_digest: step.wrapping_mul(0x9e37_79b9),
            served_by: (step % 3) as u8,
            level: (step % 4) as u8,
            state: (step % 4) as u8,
            panicked: step.is_multiple_of(7),
            offered: step + 1,
            chaos_mask: (step as u32) & 0xf,
            slack_us: if step.is_multiple_of(2) {
                NO_DEADLINE
            } else {
                -5
            },
        }
    }

    #[test]
    fn frame_json_round_trips_exactly() {
        for step in [0, 1, 6, 7, u64::from(u32::MAX) + 3] {
            let f = frame(step);
            let back = FlightFrame::from_json(&Json::parse(&f.to_json().compact()).unwrap())
                .expect("round trip");
            assert_eq!(f, back);
        }
        // Full-width digests survive (the reason for hex strings).
        let f = FlightFrame {
            obs_digest: u64::MAX,
            msg_digest: u64::MAX - 1,
            ..FlightFrame::default()
        };
        let back = FlightFrame::from_json(&f.to_json()).unwrap();
        assert_eq!(back.obs_digest, u64::MAX);
        assert_eq!(back.msg_digest, u64::MAX - 1);
    }

    #[test]
    fn frame_json_rejects_out_of_range_integers() {
        for (key, value) in [
            ("step", -1.0),
            ("served_by", 256.0),
            ("level", 1.5),
            ("offered", 1e30),
            ("chaos_mask", 4_294_967_296.0),
        ] {
            let Json::Obj(mut fields) = frame(7).to_json() else {
                unreachable!()
            };
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = Json::Num(value);
            let got = FlightFrame::from_json(&Json::Obj(fields));
            assert_eq!(got, None, "{key} = {value}");
        }
        // A saturated offered load still round-trips.
        let f = FlightFrame {
            offered: u64::MAX,
            ..frame(7)
        };
        assert_eq!(FlightFrame::from_json(&f.to_json()), Some(f));
    }

    #[test]
    fn frame_digest_ignores_slack_only() {
        let a = frame(3);
        let mut b = a;
        b.slack_us = 999;
        assert_eq!(a.digest(), b.digest(), "slack is wall-clock, not digest");
        assert!(a.diff_fields(&b).is_empty());
        b.msg_digest ^= 1;
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.diff_fields(&b), vec!["msg_digest"]);
    }

    #[test]
    fn ring_keeps_the_newest_frames_in_order() {
        let mut r = FlightRecorder::new(4);
        assert!(r.is_empty());
        for step in 0..10 {
            r.record(frame(step));
        }
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let steps: Vec<u64> = r.frames().iter().map(|f| f.step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 10, "lifetime counter survives clear");
    }

    #[test]
    fn incident_file_round_trips() {
        let dir = std::env::temp_dir().join("tsc-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("incident-{}.jsonl", std::process::id()));
        let incident = Incident {
            tenant: 2,
            tenant_name: "uptown".into(),
            trigger: FlightTrigger::Quarantine,
            step: 41,
            replay: Json::obj([
                ("seed", Json::str(u64_to_hex(0xfeed_f00d_dead_beef))),
                ("scenario", Json::str("grid 2x2")),
            ]),
            frames: (30..42).map(frame).collect(),
        };
        write_incident(&path, &incident).unwrap();
        let back = read_incident(&path).unwrap();
        assert_eq!(back, incident);
        assert_eq!(back.frames_digest(), incident.frames_digest());
        assert_eq!(
            u64_from_hex(back.replay.get_str("seed").unwrap()),
            Some(0xfeed_f00d_dead_beef)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_incident_files_are_typed_errors() {
        let dir = std::env::temp_dir().join("tsc-obs-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("not-incident-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"type\":\"fleet\"}\n").unwrap();
        let err = read_incident(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trigger_wire_names_round_trip() {
        for t in [
            FlightTrigger::Panic,
            FlightTrigger::BreakerOpen,
            FlightTrigger::Quarantine,
            FlightTrigger::ShedCap,
            FlightTrigger::Snapshot,
        ] {
            assert_eq!(FlightTrigger::parse(t.as_str()), Some(t));
        }
        assert_eq!(FlightTrigger::parse("nope"), None);
    }
}
