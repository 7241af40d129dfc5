//! # tsc-obs — unified observability for the PairUpLight stack
//!
//! One zero-dependency layer shared by the simulator, the trainer, the
//! serving runtime, and the benchmark binaries:
//!
//! * **Metrics** — [`MetricsRegistry`]: named counters, gauges, and
//!   mergeable streaming [`Histogram`]s (the same log-bucket histogram
//!   that backs `tsc-serve`'s latency telemetry), with Prometheus-text
//!   and CSV exporters.
//! * **Spans** — [`span!`] RAII timers with nesting and per-span
//!   self/total accounting, wired into the hot paths (rollout
//!   collection, GAE, PPO minibatches, tape-free inference, sim
//!   stepping). Disabled (the default) a span costs one relaxed atomic
//!   load; the `obs_overhead` bench pins that cost on the rollout hot
//!   loop.
//! * **Events** — [`EventSink`]: a structured JSONL sink with
//!   single-write atomic append, torn-tail-tolerant reading
//!   ([`read_jsonl`]), and injectable write faults for tests. Runs
//!   open with a manifest record ([`build_info`], config fingerprint,
//!   and seed) and stream per-update training metrics and per-step
//!   serve events; `obs_report` (in `tsc-bench`) turns the file back
//!   into human tables.
//! * **Flight recorder** — [`FlightRecorder`]: a fixed-capacity,
//!   allocation-free-in-steady-state ring of compact per-step
//!   [`FlightFrame`]s, dumped on a [`FlightTrigger`] together with a
//!   deterministic replay context as a self-describing JSONL
//!   [`Incident`] file (format v1) that the `forensics` bin replays
//!   bit-for-bit.
//! * **JSON** — [`Json`]: the hand-rolled value type (render + parse)
//!   behind both the JSONL sink and the `BENCH_*.json` reports.
//! * **Determinism** — [`det`]: the stack's one implementation of
//!   stateless splitmix64 draws and FNV-1a digests, behind every
//!   chaos draw, derived seed, fingerprint and replay digest.
//! * **Scenario events** — [`record_scenario`]/[`latest_scenario`]: a
//!   bounded process-global ring of environment constructions (name +
//!   compiled-scenario fingerprint), so every bench report and run log
//!   is attributable to an exact world.
//!
//! Everything here is observation-only: attaching any of it to a
//! training run changes no RNG stream and no parameter — an
//! instrumented run is bit-identical to an uninstrumented one (pinned
//! by a tier-1 workspace test).

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod det;
pub mod events;
pub mod fleet;
pub mod flight;
pub mod hist;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod scenario;
pub mod span;

pub use events::{parse_jsonl, read_jsonl, EventSink, JsonlWarning, WriteFault};
pub use fleet::{fleet_event, FleetEventKind};
pub use flight::{
    read_incident, write_incident, FlightFrame, FlightRecorder, FlightTrigger, Incident,
};
pub use hist::Histogram;
pub use json::{Json, ParseError};
pub use manifest::{build_info, BuildInfo};
pub use metrics::{escape_label_value, prom_name, MetricsRegistry};
pub use scenario::{drain_scenarios, latest_scenario, record_scenario, ScenarioEvent};
pub use span::{SpanGuard, SpanNode, SpanStat};
