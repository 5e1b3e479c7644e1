//! # bp-sim — functional and timing-accurate simulators
//!
//! Executable semantics for block-parallel application graphs.
//!
//! - [`runtime`]: shared firing machinery — method trigger matching and
//!   automatic control-token forwarding (§II-C).
//! - [`functional`]: deterministic untimed execution (the golden semantics
//!   used for correctness testing).
//! - [`timed`]: the timing-accurate functional simulator of §IV-D, modeling
//!   kernel execution cycles, per-word input read / output write time,
//!   channel capacity, per-PE time multiplexing and scheduling, plus a
//!   configurable inter-PE communication delay model
//!   ([`bp_core::CommModel`]; the zero default matches the paper's
//!   no-delay simplification bit for bit).
//! - [`timed_parallel`]: the same timed semantics executed across worker
//!   threads — independent PE interaction regions simulate concurrently,
//!   delayed channels give conservative lookahead *within* a region, and
//!   frames are accounted per sink, so the report is bitwise identical to
//!   [`timed`]'s without rebuilding any global event order (DESIGN.md §9,
//!   §11). Traced runs execute on the sequential engine.
//! - [`deadlock`]: structured capacity-deadlock diagnostics — the
//!   [`DeadlockReport`] both timed engines assemble identically when a
//!   simulation wedges, and the [`SimOutcome`] in the [`RunArtifacts`]
//!   their `run_artifacts` entry points return.
//! - [`events`]: the pending-event queues (calendar queue + binary-heap
//!   reference) shared by the timed engines.
//! - [`stats`]: per-PE utilization (run/read/write breakdown), throughput
//!   measurement, and real-time verdicts.
//! - [`parallel`]: a host-side batch runner for simulation sweeps (each
//!   simulation stays deterministic; only the batch is threaded).
//! - [`trace`]: deterministic event tracing — firings, queue depths,
//!   token arrivals, and stall attribution — inert with respect to
//!   simulation results; recorded by the sequential engine, which every
//!   traced run uses.
//! - [`chrome`]: Chrome trace-event JSON export (Perfetto-loadable) and a
//!   dependency-free JSON well-formedness checker.
//!
//! The parallel engine additionally supports optimistic (Time Warp)
//! synchronization — [`SimConfig::with_sync`] with
//! [`bp_core::SyncMode::Optimistic`] — where shards speculate past the
//! conservative window, checkpoint their state, and roll back when a
//! cross-shard message lands in their past (DESIGN.md §17). Every
//! artifact (report fingerprint, metrics tape, deadlock report) stays
//! bitwise identical to the sequential oracle.

#![warn(missing_docs)]

mod optimistic;

pub mod chrome;
pub mod deadlock;
pub mod events;
pub mod functional;
pub mod parallel;
pub mod runtime;
pub mod stats;
pub mod timed;
pub mod timed_parallel;
pub mod trace;

pub use bp_core::{CommModel, CommProfile, MetricsPolicy, QosSpec, SyncMode};
pub use bp_metrics::{MetricsFinal, MetricsSnapshot, MetricsTape, QosReport, SyncCounters};
pub use chrome::{chrome_trace_json, validate_json};
pub use deadlock::{CapacityBump, DeadlockHop, DeadlockReport, SimOutcome};
pub use events::{BucketQueue, Event, EventQueue, HeapQueue};
pub use functional::FunctionalExecutor;
pub use optimistic::StragglerPolicy;
pub use parallel::{run_batch, run_batch_with_workers};
pub use runtime::{Action, Program, RtNode, SourceRt};
pub use stats::{PeStats, RealTimeVerdict, SimReport};
pub use timed::{
    derive_channel_capacity, Backend, RunArtifacts, SimConfig, SteppableSim, TimedSimulator,
};
pub use timed_parallel::{ParallelRunStats, ParallelTimedSimulator};
pub use trace::{
    ChannelHighWater, StallCause, Trace, TraceChannel, TraceEvent, TraceMeta, TraceOptions,
};
