//! The timing-accurate functional simulator (§IV-D of the paper).
//!
//! Models kernel execution time (method cycles), data access time (per-word
//! input reads and output writes), channel buffering (bounded queues, one
//! iteration of implicit buffering per port plus configurable slack), and
//! per-PE scheduling (round-robin time multiplexing of resident kernels).
//! Inter-PE communication delay is configurable via
//! [`SimConfig::with_comm`]: under the default [`CommModel::zero`] the
//! engine reproduces the paper's zero-delay network bit for bit, while a
//! nonzero model turns each cross-PE channel push into a *delayed arrival
//! event* (base latency + per-hop distance + per-word serialization)
//! scheduled through the ordinary calendar queue. Delayed channels use
//! sender-side credit flow control: capacity is checked against a local
//! credit counter instead of the receiver's queue, and consuming a delayed
//! item schedules a credit-return event after the same latency — so no
//! send-time decision ever reads receiver state, which is what gives the
//! parallel engine its conservative lookahead (DESIGN.md §11).
//!
//! Application inputs inject samples on a strict schedule derived from their
//! declared rate; an injection that finds a full queue is recorded as a
//! real-time violation. This is the mechanism used to "simulate to verify
//! that the application meets its real-time constraints".
//!
//! Scheduling uses a per-PE *ready set*: a node is marked dirty when an
//! item lands on one of its queues or when it fires, and cleaned when a
//! scan finds it unable to progress. A node whose inputs have not changed
//! cannot have gained a plan, so clean nodes are skipped without
//! re-planning and a PE whose dirty count is zero is dispatched in O(1).
//! The round-robin pointer advances exactly as in a full scan, so the
//! schedule — and therefore every simulation result — is bit-identical to
//! the exhaustive version.
//!
//! The engine itself is [`ShardSim`]: a discrete-event loop over a *set of
//! owned PEs*. The sequential [`TimedSimulator`] runs one shard owning every
//! PE; the multi-threaded [`crate::timed_parallel::ParallelTimedSimulator`]
//! runs one shard per worker over disjoint PE interaction regions (see
//! DESIGN.md §9). Both paths execute the same per-event code, so their
//! results can only differ if shard isolation is violated — which debug
//! assertions on every node access check. Every [`Backend`] runs the same
//! loop too: the backend only chooses how `try_start` plans and fires a
//! node.

use crate::deadlock::{CapacityBump, DeadlockHop, DeadlockReport, SimOutcome};
use crate::events::{BucketQueue, EventQueue};
use crate::optimistic::{key, Checkpoint, InKind, InRec, Key, OptState, OutRec, StragglerPolicy};
use crate::parallel::DisjointSlots;
use crate::runtime::{stuck_report, Action, Program, ProgramTables, RtNode};
use crate::stats::{PeStats, RealTimeVerdict, SimReport};
use crate::timed_parallel::ParallelRunStats;
use crate::trace::{StallCause, Trace, TraceEvent, TraceMeta, TraceOptions, TraceRecorder};
use bp_core::capacity::{derive_channel_capacities, ChannelCapacities};
use bp_core::graph::AppGraph;
use bp_core::item::Item;
use bp_core::kernel::NodeRole;
use bp_core::machine::{CommModel, MachineSpec, Mapping, SyncMode};
use bp_core::token::ControlToken;
use bp_core::{BpError, MetricsPolicy, Result};
use bp_metrics::{MetricsRecorder, MetricsTape};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Band-1 marker bit for explicit event ordinals (see [`EventQueue::push_ord`]):
/// communication events (arrivals, credit returns) sort after band-0 events
/// (source emissions, PE completions) at equal timestamps, and among
/// themselves by `(stream, sequence)` — both assigned at *creation* time, so
/// the order is identical however the events reach the queue (locally pushed
/// or delivered through a parallel shard inbox).
pub(crate) const BAND1: u64 = 1 << 63;

/// Build the band-1 ordinal for communication stream `stream` (2·chan for
/// arrivals, 2·chan+1 for credit returns — each owned by exactly one shard)
/// at per-stream sequence number `seq`.
#[inline]
pub(crate) fn band1_ord(stream: u64, seq: u32) -> u64 {
    BAND1 | (stream << 32) | seq as u64
}

/// How the timed engines plan and fire a node.
///
/// Every backend runs the *same* table-driven event loop (routing,
/// space, credit and cost tables resolved at simulator-build time) and
/// must produce bitwise-identical [`SimReport`]s (fingerprints included)
/// and traces (DESIGN.md §13). They differ only in the planner and the
/// fire path: the interpreted backend scans each method's triggers
/// ([`RtNode::plan`]) and fires through
/// [`RtNode::execute_with_cost`]; the compiled backend tests
/// `bp-codegen`'s readiness masks against incrementally maintained
/// queue-head masks and fires the lowered arity-specialized routine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Pick automatically: compiled in release builds, interpreted when
    /// debug assertions are on (so debug runs exercise the scan planner),
    /// and interpreted for a graph that cannot be lowered.
    #[default]
    Auto,
    /// Scan planner (`RtNode::plan` + `execute_with_cost`) on the shared
    /// event loop.
    Interpreted,
    /// Mask planner and fused fire routines lowered by
    /// [`bp_codegen::lower_graph`], on the shared event loop.
    /// Construction fails if the graph cannot be lowered (a kernel with
    /// more than 64 input ports).
    Compiled,
}

/// Timed simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Target machine.
    pub machine: MachineSpec,
    /// Execution backend (default [`Backend::Auto`]).
    pub backend: Backend,
    /// Inter-PE communication delay model. The default, [`CommModel::zero`],
    /// delivers cross-PE pushes in the same cycle (the paper's §IV-D
    /// simplification) and reproduces every pre-model result bit for bit.
    pub comm: CommModel,
    /// Uniform capacity of each input queue in items.
    /// [`with_channel_capacity`](Self::with_channel_capacity) pins every
    /// channel to one explicit value, overriding both the derivation and
    /// any per-channel plan in [`capacities`](Self::capacities).
    pub channel_capacity: Option<usize>,
    /// Per-channel capacity plan (e.g. from the compiler's buffering pass).
    /// `None` (the default) derives one from the graph being simulated —
    /// the widest-row default of [`derive_channel_capacity`] plus
    /// feedback-aware back-edge overrides
    /// ([`bp_core::capacity::derive_channel_capacities`]).
    pub capacities: Option<ChannelCapacities>,
    /// Frames to push through every application input.
    pub frames: u32,
    /// Event tracing (`None`, the default, records nothing and adds no
    /// per-event work beyond a branch). Tracing is *inert*: it cannot
    /// change the schedule, the [`SimReport`], or its fingerprint — see
    /// [`crate::trace`].
    pub trace: Option<TraceOptions>,
    /// Always-on runtime metrics (`None`, the default, compiles the
    /// collection out of the hot loops entirely via the same `OBS`
    /// monomorphization tracing uses). Metrics are *inert* like tracing:
    /// they cannot change the schedule, the [`SimReport`], or its
    /// fingerprint.
    pub metrics: Option<MetricsPolicy>,
    /// Pre-lowered direct-threaded program to instantiate instead of
    /// lowering the graph at build time (`None`, the default, lowers
    /// fresh). The program must come from [`bp_codegen::lower_graph`] on a
    /// graph with the same [`bp_codegen::shape_key`] as the one being
    /// simulated — the lowering reads only shape facts, so any same-shape
    /// program is interchangeable. This is how a fleet host shares one
    /// lowering across many tenant instances; ignored when the resolved
    /// backend is interpreted.
    pub lowered: Option<Arc<bp_codegen::ThreadedProgram>>,
    /// Parallel-engine synchronization protocol (default
    /// [`SyncMode::Conservative`]). [`SyncMode::Optimistic`] lets shard
    /// workers speculate past the conservative window with checkpointing,
    /// rollback and anti-messages (DESIGN.md §17); committed results are
    /// bitwise identical either way. Ignored by the sequential engine.
    pub sync: SyncMode,
    /// Optimistic mode: events executed between speculative checkpoints
    /// (default 64; `usize::MAX` checkpoints only at round boundaries).
    /// A pure time/space knob — results are invariant under it.
    pub checkpoint_interval: usize,
    /// Optimistic mode: deterministic straggler fault injection for
    /// testing (`None`, the default, injects nothing). Stalls perturb only
    /// the speculation schedule, never committed results.
    pub straggler: Option<StragglerPolicy>,
}

impl SimConfig {
    /// Default configuration on the evaluation machine, with the channel
    /// capacity derived per graph (a window-row of slack; see
    /// [`derive_channel_capacity`]).
    pub fn new(frames: u32) -> Self {
        Self {
            machine: MachineSpec::default_eval(),
            backend: Backend::Auto,
            comm: CommModel::zero(),
            channel_capacity: None,
            capacities: None,
            frames,
            trace: None,
            metrics: None,
            lowered: None,
            sync: SyncMode::Conservative,
            checkpoint_interval: 64,
            straggler: None,
        }
    }

    /// Select the execution backend (default [`Backend::Auto`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Use a specific machine.
    pub fn with_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = machine;
        self
    }

    /// Use a specific inter-PE communication delay model.
    pub fn with_comm(mut self, comm: CommModel) -> Self {
        self.comm = comm;
        self
    }

    /// Pin one explicit capacity for *every* queue instead of deriving a
    /// plan from the graph. This disables the feedback-aware back-edge
    /// sizing, so a feedback loop whose primed population exceeds what the
    /// pinned value can hold will capacity-deadlock (and be diagnosed by a
    /// [`crate::deadlock::DeadlockReport`]).
    pub fn with_channel_capacity(mut self, items: usize) -> Self {
        self.channel_capacity = Some(items);
        self
    }

    /// Use an explicit per-channel capacity plan (keyed by the graph's
    /// [`bp_core::ChannelId`]s). Ignored when
    /// [`with_channel_capacity`](Self::with_channel_capacity) pinned a
    /// uniform value.
    pub fn with_channel_capacities(mut self, plan: ChannelCapacities) -> Self {
        self.capacities = Some(plan);
        self
    }

    /// Enable deterministic event tracing; retrieve the [`Trace`] via
    /// [`TimedSimulator::run_with_trace`] (or the parallel equivalent).
    pub fn with_trace(mut self, options: TraceOptions) -> Self {
        self.trace = Some(options);
        self
    }

    /// Enable always-on runtime metrics under `policy`; retrieve the
    /// [`bp_metrics::MetricsTape`] via
    /// [`TimedSimulator::run_with_metrics`] (or the parallel equivalent).
    pub fn with_metrics(mut self, policy: MetricsPolicy) -> Self {
        self.metrics = Some(policy);
        self
    }

    /// Reuse a pre-lowered program (see [`SimConfig::lowered`] for the
    /// same-shape contract) instead of lowering the graph at build time.
    pub fn with_lowered(mut self, program: Arc<bp_codegen::ThreadedProgram>) -> Self {
        self.lowered = Some(program);
        self
    }

    /// Select the parallel-engine synchronization protocol (default
    /// [`SyncMode::Conservative`]).
    pub fn with_sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }

    /// Set the optimistic-mode speculative checkpoint interval in events
    /// (default 64; `usize::MAX` checkpoints only at round boundaries).
    pub fn with_checkpoint_interval(mut self, events: usize) -> Self {
        assert!(events >= 1, "checkpoint interval must be at least 1");
        self.checkpoint_interval = events;
        self
    }

    /// Inject deterministic stragglers into the optimistic worker loop
    /// (testing aid; forces rollbacks without changing committed results).
    pub fn with_straggler(mut self, policy: StragglerPolicy) -> Self {
        self.straggler = Some(policy);
        self
    }
}

/// Derive the per-queue capacity for a graph: enough slack that within-frame
/// burstiness — a windowed kernel receives its row of windows faster than it
/// drains them, catching up during the halo rows — does not register as a
/// missed deadline, while sustained overload still does.
///
/// The slack needed scales with the widest input window row any kernel
/// consumes, so the capacity is that width rounded up to a power of two,
/// with a floor of 64 items (the pre-derivation default; every bundled
/// application's windows are narrower, so they are unaffected).
///
/// This is the *default* every channel gets; feedback back edges are
/// additionally grown to hold their loop's primed population — see
/// [`bp_core::capacity::derive_channel_capacities`], which the simulator
/// applies when no explicit capacity is configured.
pub fn derive_channel_capacity(graph: &AppGraph) -> usize {
    bp_core::capacity::derive_default_capacity(graph)
}

/// What a pending simulator event does when it fires.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventKind {
    /// Inject the next sample of a source (index into
    /// [`ProgramTables::sources`]).
    SourceEmit {
        /// Global source index.
        source: usize,
    },
    /// A PE finishes its current firing.
    PeDone {
        /// Global PE index.
        pe: usize,
    },
    /// An in-flight item reaches the head of a delayed channel's wire and
    /// lands in the destination queue. Band-1: ordinal `2·chan`, sequenced
    /// by the sender.
    ChannelArrival {
        /// Runtime channel index (into [`Shared::channels`]).
        chan: u32,
    },
    /// A consumed delayed item's buffer slot becomes visible to the sender
    /// again. Band-1: ordinal `2·chan + 1`, sequenced by the receiver.
    CreditReturn {
        /// Runtime channel index (into [`Shared::channels`]).
        chan: u32,
    },
}

/// Resolved per-channel communication parameters. `latency_s > 0` marks the
/// channel *delayed*: pushes become [`EventKind::ChannelArrival`] events and
/// capacity is enforced by sender-side credits. Channels between nodes on
/// the same PE are always direct (local memory), whatever the model.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChannelRt {
    pub(crate) src: usize,
    pub(crate) src_port: usize,
    pub(crate) dst: usize,
    pub(crate) dst_port: usize,
    /// One-way flight time of an item; 0 means direct same-cycle delivery.
    pub(crate) latency_s: f64,
    /// Serialization cost per payload word (store-and-forward: items on one
    /// channel serialize behind each other at this rate).
    pub(crate) ser_per_word_s: f64,
    /// Resolved buffer capacity of this channel in items (the plan default,
    /// or a feedback back-edge override).
    pub(crate) cap: usize,
}

/// Payload of a cross-shard communication message.
pub(crate) enum MsgKind {
    /// An item entering the destination shard's wire.
    Arrival(Item),
    /// A buffer credit returning to the source shard.
    Credit,
    /// Optimistic mode only: cancel the positive message with the same
    /// `(t, ord, chan)` — the send was rolled back at the source. The flag
    /// is true when the positive was an arrival (false: a credit).
    Anti(bool),
}

/// A communication event crossing shards in the parallel engine, delivered
/// through per-shard inboxes between synchronization windows. `(t, ord)`
/// fully determine its queue position, so inbox delivery order is
/// irrelevant to the schedule.
pub(crate) struct OutMsg {
    pub(crate) t: f64,
    pub(crate) ord: u64,
    pub(crate) chan: u32,
    pub(crate) kind: MsgKind,
}

#[derive(Clone)]
pub(crate) struct Inflight {
    node: usize,
    emitted: Vec<(usize, Item)>,
    run_s: f64,
    read_s: f64,
    write_s: f64,
}

/// One pre-resolved routing destination: the per-push delayed-channel and
/// node-role lookups folded into a table at simulator-build time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RouteDest {
    pub(crate) dn: u32,
    pub(crate) dp: u32,
    /// Delayed channel carrying this edge, or `u32::MAX` for direct
    /// same-cycle delivery into the destination queue.
    pub(crate) chan: u32,
    /// Destination is a sink (EOF arrival timestamps are recorded).
    pub(crate) sink: bool,
}

/// One pre-resolved downstream-space check: a firing of a method needs
/// room on every destination of every output it declares, checked in
/// output-then-route order.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SpaceCheck {
    /// Delayed edge: the sender-side credit count must be ≥ 2.
    Credit {
        /// Channel index into [`Shared::channels`].
        chan: u32,
    },
    /// Direct edge: the destination queue must have 2 items of headroom.
    /// `chan` is the channel feeding that queue, used to attribute stalls.
    Queue {
        dn: u32,
        dp: u32,
        cap: u32,
        chan: u32,
    },
}

/// Per-method memo of the last read/write word-cost conversions. Word
/// counts are data-dependent but almost always repeat (window shapes are
/// static per port), and IEEE-754 division is deterministic, so reusing
/// the quotient computed for the *same* word count is bitwise identical
/// to dividing per firing — it just skips two `f64` divides on the hot
/// path.
#[derive(Clone, Copy)]
struct RwMemo {
    read_words: u64,
    read_s: f64,
    write_words: u64,
    write_s: f64,
}

impl Default for RwMemo {
    fn default() -> Self {
        // `u64::MAX` words can never be observed (it would overflow every
        // window allocation), so the first firing always misses.
        Self {
            read_words: u64::MAX,
            read_s: 0.0,
            write_words: u64::MAX,
            write_s: 0.0,
        }
    }
}

/// Everything the event loop reads but never writes, shared by all shards:
/// routing/pacing tables, the mapping, and resolved configuration.
pub(crate) struct Shared {
    pub(crate) tables: ProgramTables,
    /// Distinct upstream producer nodes per node (for dispatch waves).
    /// Covers *direct* channels only: a delayed channel's producer is
    /// re-dispatched by its [`EventKind::CreditReturn`] instead, so freeing
    /// space synchronously never reaches across a delayed (possibly
    /// cross-shard) edge.
    pub(crate) upstream: Vec<Vec<usize>>,
    /// Every graph channel with its resolved communication parameters, in
    /// graph channel-slot order.
    pub(crate) channels: Vec<ChannelRt>,
    /// `chan_into[node][in_port]` is the channel feeding that port (graph
    /// validation guarantees at most one).
    pub(crate) chan_into: Vec<Vec<Option<u32>>>,
    /// `cap_into[node][in_port]` is the resolved capacity of the queue on
    /// that port (the feeding channel's capacity; the plan default for
    /// unconnected ports), read on every space check.
    pub(crate) cap_into: Vec<Vec<usize>>,
    /// True when any channel is delayed; false short-circuits every
    /// comm-model branch so the zero model costs one load per routing fan-out.
    pub(crate) any_delayed: bool,
    pub(crate) pe_of_node: Vec<usize>,
    pub(crate) residents: Vec<Vec<usize>>,
    pub(crate) node_roles: Vec<NodeRole>,
    pub(crate) machine: MachineSpec,
    pub(crate) frames: u32,
    pub(crate) required_rate_hz: f64,
    pub(crate) trace: Option<TraceOptions>,
    /// Resolved metrics policy (`None` = metrics off, hot loops run the
    /// unobserved `OBS = false` specialization).
    pub(crate) metrics: Option<ResolvedMetrics>,
    /// The lowered program whose mask planner and fused fire routines the
    /// event loop uses; `None` plans with [`RtNode::plan`] and fires with
    /// [`RtNode::execute_with_cost`] (see [`Backend`]). `Arc`-shared so a
    /// fleet host can instantiate many same-shape simulators from one
    /// lowering (the program is read-only at run time).
    pub(crate) program: Option<Arc<bp_codegen::ThreadedProgram>>,
    /// `dests[node][out_port]` — fused destination records in route order.
    pub(crate) dests: Vec<Vec<Vec<RouteDest>>>,
    /// `space[node][method]` — flattened downstream-space checks.
    pub(crate) space: Vec<Vec<Vec<SpaceCheck>>>,
    /// `run_s[node][method]` — declared cost in seconds, precomputed by the
    /// same `cycles as f64 / pe_clock_hz` a firing would evaluate
    /// (identical operation ⇒ identical bits). Used only when the
    /// behavior's actual cycles equal the declared cost; otherwise the
    /// division runs live.
    pub(crate) run_s: Vec<Vec<f64>>,
    /// `credit_chans[node][method]` — delayed channels to credit after a
    /// firing, in trigger order (duplicate trigger ports preserved).
    pub(crate) credit_chans: Vec<Vec<Vec<u32>>>,
    /// Declared seconds of a token forward (1 cycle), precomputed once.
    pub(crate) forward_run_s: f64,
    /// `method_base[node] + method` is the flat per-method slot used to
    /// index the shard's read/write-cost memo cache.
    pub(crate) method_base: Vec<u32>,
    /// Total method slots across all nodes (the memo cache's length).
    pub(crate) num_method_slots: usize,
    /// Parallel-engine synchronization protocol (see [`SimConfig::sync`]).
    pub(crate) sync: SyncMode,
    /// Optimistic-mode speculative checkpoint interval in events.
    pub(crate) checkpoint_interval: usize,
    /// Optimistic-mode deterministic straggler injection (testing aid).
    pub(crate) straggler: Option<StragglerPolicy>,
}

/// [`bp_core::MetricsPolicy`] with every default resolved against the
/// application: the snapshot interval defaults to one frame period.
#[derive(Clone, Debug)]
pub(crate) struct ResolvedMetrics {
    pub(crate) interval_s: f64,
    pub(crate) window: usize,
    pub(crate) contracts: bp_core::QosSpec,
}

/// Instantiate `graph` under `mapping` and resolve `config` into the node
/// instances plus the read-only [`Shared`] tables both simulators consume.
pub(crate) fn build_shared(
    graph: &AppGraph,
    mapping: &Mapping,
    config: SimConfig,
) -> Result<(Vec<RtNode>, Shared)> {
    // A zero-frame run settles with nothing to rate: its real-time verdict
    // would be an empty "achieved 0 Hz" rather than a measurement.
    if config.frames == 0 {
        return Err(BpError::Validation(
            "a timed simulation needs at least one frame".into(),
        ));
    }
    if mapping.pe_of_node.len() != graph.node_count() {
        return Err(BpError::Simulation(format!(
            "mapping covers {} nodes but graph has {}",
            mapping.pe_of_node.len(),
            graph.node_count()
        )));
    }
    // Resolve the capacity plan: an explicit uniform pin wins, then an
    // explicit per-channel plan, then the feedback-aware derivation.
    let plan = match (config.channel_capacity, config.capacities) {
        (Some(uniform), _) => ChannelCapacities::uniform(uniform),
        (None, Some(plan)) => plan,
        (None, None) => derive_channel_capacities(graph),
    };
    let program = Program::instantiate(graph)?;
    let (nodes, tables) = program.split();
    let n = nodes.len();
    // Resolve every channel's communication parameters once. Same-PE
    // channels are local memory (latency 0) regardless of the model.
    let mut channels = Vec::new();
    let mut chan_into: Vec<Vec<Option<u32>>> =
        nodes.iter().map(|rt| vec![None; rt.queues.len()]).collect();
    let mut cap_into: Vec<Vec<usize>> = nodes
        .iter()
        .map(|rt| vec![plan.default; rt.queues.len()])
        .collect();
    for (cid, c) in graph.channels() {
        let (src, dst) = (c.src.node.0, c.dst.node.0);
        let latency_s = config.comm.channel_latency_s(
            mapping.pe_of_node[src],
            mapping.pe_of_node[dst],
            mapping.num_pes,
        );
        let delayed = latency_s > 0.0;
        let (src_port, dst_port) = (c.src.port, c.dst.port);
        let chan = channels.len() as u32;
        let cap = plan.capacity(cid);
        channels.push(ChannelRt {
            src,
            src_port,
            dst,
            dst_port,
            latency_s,
            ser_per_word_s: if delayed { config.comm.per_word_s } else { 0.0 },
            cap,
        });
        chan_into[dst][dst_port] = Some(chan);
        cap_into[dst][dst_port] = cap;
    }
    let any_delayed = channels.iter().any(|c| c.latency_s > 0.0);
    // Dispatch waves walk upstream over direct channels only; delayed
    // producers are woken by credit returns instead.
    let mut upstream = vec![Vec::new(); n];
    for c in &channels {
        if c.latency_s <= 0.0 && !upstream[c.dst].contains(&c.src) {
            upstream[c.dst].push(c.src);
        }
    }
    let node_roles: Vec<NodeRole> = nodes.iter().map(|rt| rt.spec.role).collect();
    // Lower for the mask planner when requested (or in release builds
    // under `Auto`); see DESIGN.md §13.
    let want_lowered = match config.backend {
        Backend::Interpreted => false,
        Backend::Compiled => true,
        Backend::Auto => !cfg!(debug_assertions),
    };
    let program = if !want_lowered {
        None
    } else if let Some(program) = config.lowered {
        // A pre-lowered program (fleet cache hit) skips the lowering; the
        // caller guarantees it came from a same-shape graph. The node
        // count is the cheap structural check.
        if program.nodes.len() != n {
            return Err(BpError::Simulation(format!(
                "pre-lowered program has {} nodes but graph has {n}",
                program.nodes.len()
            )));
        }
        Some(program)
    } else {
        match bp_codegen::lower_graph(graph) {
            Ok(p) => Some(Arc::new(p)),
            // `Auto` falls back to the scan planner on an unlowerable
            // graph; an explicit request surfaces the error.
            Err(e) if config.backend == Backend::Compiled => return Err(e),
            Err(_) => None,
        }
    };
    // The routing, space, credit and cost tables come from the instance's
    // own method tables, whichever planner runs.
    let delayed_chan = |dn: usize, dp: usize| -> Option<u32> {
        chan_into[dn][dp].filter(|&c| channels[c as usize].latency_s > 0.0)
    };
    let dests: Vec<Vec<Vec<RouteDest>>> = tables
        .routes
        .iter()
        .map(|node_routes| {
            node_routes
                .iter()
                .map(|port_routes| {
                    port_routes
                        .iter()
                        .map(|&(dn, dp)| RouteDest {
                            dn: dn as u32,
                            dp: dp as u32,
                            chan: delayed_chan(dn, dp).unwrap_or(u32::MAX),
                            sink: node_roles[dn] == NodeRole::Sink,
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let clock = config.machine.pe_clock_hz;
    let mut space = Vec::with_capacity(n);
    let mut run_s = Vec::with_capacity(n);
    let mut credit_chans = Vec::with_capacity(n);
    let mut method_base = Vec::with_capacity(n);
    let mut num_method_slots = 0usize;
    for (node, rt) in nodes.iter().enumerate() {
        let mut node_space = Vec::with_capacity(rt.compiled.len());
        let mut node_run_s = Vec::with_capacity(rt.compiled.len());
        let mut node_credits = Vec::with_capacity(rt.compiled.len());
        for cm in &rt.compiled {
            let mut checks = Vec::new();
            for &port in &cm.outputs {
                for &(dn, dp) in &tables.routes[node][port] {
                    checks.push(match delayed_chan(dn, dp) {
                        Some(chan) => SpaceCheck::Credit { chan },
                        None => SpaceCheck::Queue {
                            dn: dn as u32,
                            dp: dp as u32,
                            cap: cap_into[dn][dp] as u32,
                            chan: chan_into[dn][dp].expect("route destinations are channel-fed"),
                        },
                    });
                }
            }
            node_space.push(checks);
            node_run_s.push(cm.cost_cycles as f64 / clock);
            node_credits.push(
                cm.triggers
                    .iter()
                    .filter_map(|&(p, _)| delayed_chan(node, p))
                    .collect(),
            );
        }
        space.push(node_space);
        run_s.push(node_run_s);
        credit_chans.push(node_credits);
        method_base.push(num_method_slots as u32);
        num_method_slots += rt.compiled.len();
    }
    let required_rate_hz = graph
        .sources()
        .iter()
        .map(|s| s.rate_hz)
        .fold(0.0f64, f64::max);
    let metrics = config.metrics.map(|p| ResolvedMetrics {
        interval_s: p.interval_s.unwrap_or(if required_rate_hz > 0.0 {
            1.0 / required_rate_hz
        } else {
            1e-3
        }),
        window: p.window.unwrap_or(5),
        contracts: p.contracts,
    });
    let shared = Shared {
        tables,
        upstream,
        channels,
        chan_into,
        cap_into,
        any_delayed,
        pe_of_node: mapping.pe_of_node.clone(),
        residents: mapping.residents(),
        node_roles,
        machine: config.machine,
        frames: config.frames,
        required_rate_hz,
        trace: config.trace,
        metrics,
        program,
        dests,
        space,
        run_s,
        credit_chans,
        forward_run_s: 1.0 / clock,
        method_base,
        num_method_slots,
        sync: config.sync,
        checkpoint_interval: config.checkpoint_interval,
        straggler: config.straggler,
    };
    Ok((nodes, shared))
}

/// Owned results of one shard's run, extracted once the event loop is done
/// so the node slots can be reclaimed.
pub(crate) struct ShardOutcome {
    pub(crate) stats: Vec<PeStats>,
    pub(crate) node_busy: Vec<f64>,
    pub(crate) violations: u64,
    /// End-of-frame arrival times per sink node, in time order (empty for
    /// every other node, and for sinks the shard does not own).
    pub(crate) sink_eofs: Vec<Vec<f64>>,
    /// Start time of each frame (global source 0 only).
    pub(crate) frame_start_times: Vec<f64>,
    pub(crate) custom_token_emissions: Vec<u64>,
    pub(crate) budget_overruns: Vec<u64>,
    pub(crate) node_max_queue: Vec<usize>,
    /// Final sender-side credit count per channel (capacity minus
    /// outstanding items); only entries for channels whose *source* the
    /// shard owns are meaningful.
    pub(crate) credits: Vec<i64>,
    pub(crate) now: f64,
    /// Events the shard's loop popped and handled (rolled-back events
    /// excluded).
    pub(crate) processed: u64,
    pub(crate) trace: Option<TraceRecorder>,
    /// Streaming metrics state, present only when [`SimConfig::metrics`]
    /// is set; merged across shards by the parallel engine.
    pub(crate) metrics: Option<MetricsRecorder>,
    /// Optimistic-sync activity counters (all-zero for conservative and
    /// sequential runs); summed commutatively into the tape.
    pub(crate) sync: bp_metrics::SyncCounters,
}

/// Cross-shard communication inboxes of a parallel run, one per
/// destination shard.
pub(crate) type Inboxes = Arc<[Mutex<Vec<OutMsg>>]>;

/// The discrete-event engine for one shard: a set of PEs (and their resident
/// nodes) that never interact with any other shard's. The sequential
/// simulator is the single-shard special case. All state vectors are
/// globally indexed; entries for PEs/nodes the shard does not own stay at
/// their initial values and are ignored during merging.
///
/// The engine owns its context: the read-only tables and the node slots
/// are reference-counted and shared with the other shards of a parallel
/// run, so an engine is an ordinary `Send` value a caller can hold, move,
/// and resume ([`TimedSimulator::step`]).
pub(crate) struct ShardSim {
    shared: Arc<Shared>,
    nodes: Arc<DisjointSlots<RtNode>>,
    shard: usize,
    shard_of_pe: Vec<usize>,
    rr: Vec<usize>,
    pe_inflight: Vec<Option<Inflight>>,
    /// Ready-set state: `dirty[node]` is true when the node's inputs or
    /// private state changed since its last failed plan; a clean node is
    /// guaranteed unable to fire and is skipped without re-planning.
    dirty: Vec<bool>,
    /// Number of dirty residents per PE; zero means the PE has no work.
    dirty_count: Vec<usize>,
    events: BucketQueue<EventKind>,
    now: f64,
    stats: Vec<PeStats>,
    node_busy: Vec<f64>,
    violations: u64,
    /// End-of-frame arrival times per sink node. Only the sink's shard
    /// appends, in pop order, so each list is already in time order.
    sink_eofs: Vec<Vec<f64>>,
    /// Injection time of each frame's first sample (global source 0 only).
    frame_start_times: Vec<f64>,
    /// Custom-token emissions per node, for §II-C rate-bound checking.
    custom_token_emissions: Vec<u64>,
    source_progress: Vec<u64>,
    budget_overruns: Vec<u64>,
    node_max_queue: Vec<usize>,
    /// Sender-side credit count per channel (delayed channels only; direct
    /// channels read the receiver queue instead). Starts at capacity; a
    /// send spends one, a [`EventKind::CreditReturn`] restores one. May go
    /// negative under source overfill, exactly mirroring the direct path's
    /// behavior of counting a violation but still injecting.
    credits: Vec<i64>,
    /// Store-and-forward: when each delayed channel's wire is free again.
    busy_until: Vec<f64>,
    /// In-flight items per delayed channel, in send order; arrivals pop
    /// from the front (arrival times are non-decreasing per channel, and
    /// equal-time arrivals pop in ordinal = send order). Each item is
    /// tagged with its per-channel send sequence so optimistic-mode
    /// anti-messages can surgically remove a cancelled in-flight item;
    /// the tag is otherwise inert.
    wire: Vec<VecDeque<(u32, Item)>>,
    /// Next arrival sequence number per channel (owned by the src shard).
    send_seq: Vec<u32>,
    /// Next credit-return sequence number per channel (owned by the dst shard).
    credit_seq: Vec<u32>,
    /// Cross-shard communication inboxes (parallel engine only); indexed by
    /// destination shard.
    links: Option<Inboxes>,
    /// Earliest timestamp of any event this shard emitted into another
    /// shard's inbox since the last [`take_min_out`](Self::take_min_out);
    /// the coordinator folds it into the global window bound so in-flight
    /// messages hold the window back exactly like queued events.
    min_out: f64,
    /// Events popped and handled so far (restored on rollback, so it
    /// counts committed events only).
    processed: u64,
    /// Event recorder, present only when [`SimConfig::trace`] is set.
    /// Recording is read-only with respect to simulation state, so its
    /// presence cannot perturb the schedule.
    trace: Option<TraceRecorder>,
    /// Streaming metrics recorder, present only when
    /// [`SimConfig::metrics`] is set. Like tracing it is inert: hooks
    /// observe but never influence the schedule.
    metrics: Option<MetricsRecorder>,
    /// Last recorded stall cause per PE (`None` = running); transitions
    /// are traced only on change. Unused when tracing is off.
    pe_stall: Vec<Option<StallCause>>,
    /// Mask planner only (`Shared::program` is `Some`): bit `p` set when
    /// the node's input queue `p` currently has a window at its head.
    /// Maintained incrementally at every queue mutation;
    /// [`bp_codegen::head_masks`] is the oracle (checked before every mask
    /// plan under debug assertions). Unused by the scan planner, which
    /// also serves kernels whose port indices overflow a `u64`.
    head_data: Vec<u64>,
    /// As [`head_data`](Self::head_data), for control tokens.
    head_ctrl: Vec<u64>,
    /// Recycled dispatch worklist: the PEs a routed firing touched, or the
    /// single PE an arrival/credit event wakes. Never in use twice at
    /// once (dispatching does not route).
    wave_buf: Vec<usize>,
    /// One bit per PE, set while the PE sits in the current dispatch
    /// worklist — O(1) membership for the worklist dedup. Insertions set
    /// the bit, pops clear it, so the mask is all-zero between waves (the
    /// unconditional own-PE push in `handle_pe_done` bypasses the mask;
    /// a duplicate pop finds the PE busy and skips it).
    wave_mask: Vec<u64>,
    /// Per-method [`RwMemo`] slots (flat-indexed via
    /// `Shared::method_base`).
    rw_memo: Vec<RwMemo>,
    /// True when the node's last plan succeeded but `space_ok` declined
    /// it, so it is waiting on downstream consumption.
    /// The untraced dispatcher wakes upstream PEs only for flagged nodes —
    /// a firing's consumption is the *only* new information an upstream
    /// wake carries (data arrivals wake destinations through the routing
    /// path, and a fireable-with-space resident was already started, or
    /// its PE is busy and revisited at `PeDone`). Conservatively cleared
    /// only when the node starts; stale flags cost a no-op pop, never a
    /// missed wake.
    space_waiting: Vec<bool>,
    /// Time Warp state (checkpoints, message logs, counters), present only
    /// in optimistic parallel runs; boxed so the conservative and
    /// sequential engines pay one null pointer (see [`crate::optimistic`]).
    opt: Option<Box<OptState>>,
}

impl ShardSim {
    /// `shard_of_pe` assigns every PE to a shard; this instance runs the
    /// PEs of shard `shard`. Pass `links = Some(inboxes)` to route
    /// cross-shard communication (sequential runs pass `None`; with
    /// one shard every channel is internal and the inboxes are never used).
    pub(crate) fn new(
        shared: Arc<Shared>,
        nodes: Arc<DisjointSlots<RtNode>>,
        shard: usize,
        shard_of_pe: Vec<usize>,
        links: Option<Inboxes>,
    ) -> Self {
        let n = nodes.len();
        let num_pes = shared.residents.len();
        let num_chans = shared.channels.len();
        // One PE cycle per bucket: firing durations are cycle counts plus
        // fractional word costs, so event times cluster at this scale.
        let quantum = 1.0 / shared.machine.pe_clock_hz;
        Self {
            rr: vec![0; num_pes],
            pe_inflight: (0..num_pes).map(|_| None).collect(),
            dirty: vec![false; n],
            dirty_count: vec![0; num_pes],
            events: BucketQueue::new(quantum),
            now: 0.0,
            stats: vec![PeStats::default(); num_pes],
            node_busy: vec![0.0; n],
            violations: 0,
            sink_eofs: vec![Vec::new(); n],
            frame_start_times: Vec::new(),
            custom_token_emissions: vec![0; n],
            source_progress: vec![0; shared.tables.sources.len()],
            budget_overruns: vec![0; n],
            node_max_queue: vec![0; n],
            credits: shared.channels.iter().map(|c| c.cap as i64).collect(),
            busy_until: vec![0.0; num_chans],
            wire: (0..num_chans).map(|_| VecDeque::new()).collect(),
            send_seq: vec![0; num_chans],
            credit_seq: vec![0; num_chans],
            links,
            min_out: f64::INFINITY,
            processed: 0,
            trace: shared.trace.map(TraceRecorder::new),
            metrics: shared
                .metrics
                .as_ref()
                .map(|m| MetricsRecorder::new(m.interval_s, m.window, num_pes, n, num_chans)),
            pe_stall: vec![None; num_pes],
            head_data: vec![0; n],
            head_ctrl: vec![0; n],
            wave_buf: Vec::new(),
            wave_mask: vec![0; num_pes.div_ceil(64)],
            rw_memo: vec![RwMemo::default(); shared.num_method_slots],
            space_waiting: vec![false; n],
            opt: None,
            // Moved last: the initializers above read them.
            shared,
            nodes,
            shard,
            shard_of_pe,
        }
    }

    /// Wave-membership test-and-set for the dispatcher's O(1) worklist
    /// dedup. Returns `true` when `pe` was not yet a member.
    #[inline]
    fn wave_test_set(&mut self, pe: usize) -> bool {
        let (w, b) = (pe / 64, 1u64 << (pe % 64));
        let newly = self.wave_mask[w] & b == 0;
        self.wave_mask[w] |= b;
        newly
    }

    #[inline]
    fn wave_clear(&mut self, pe: usize) {
        self.wave_mask[pe / 64] &= !(1u64 << (pe % 64));
    }

    #[inline]
    fn owns_node(&self, node: usize) -> bool {
        self.shard_of_pe[self.shared.pe_of_node[node]] == self.shard
    }

    /// Borrow an owned node. The disjointness contract makes this sound:
    /// every node belongs to exactly one shard and only its shard's worker
    /// ever reaches it (checked here in debug builds).
    #[inline]
    fn node(&self, i: usize) -> &RtNode {
        debug_assert!(
            self.owns_node(i),
            "shard {} touched node {} owned by shard {}",
            self.shard,
            i,
            self.shard_of_pe[self.shared.pe_of_node[i]]
        );
        // SAFETY: per the shard plan this worker is the unique owner of
        // node `i` (debug-asserted above), and the borrow is statement-scoped.
        unsafe { self.nodes.get(i) }
    }

    /// Mutably borrow an owned node. Same contract as [`node`](Self::node);
    /// callers keep the borrow statement-scoped so two live borrows of one
    /// slot cannot exist.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn node_mut(&self, i: usize) -> &mut RtNode {
        debug_assert!(
            self.owns_node(i),
            "shard {} touched node {} owned by shard {}",
            self.shard,
            i,
            self.shard_of_pe[self.shared.pe_of_node[i]]
        );
        // SAFETY: as in `node`, ownership is exclusive and borrows are
        // statement-scoped.
        unsafe { self.nodes.get_mut(i) }
    }

    /// Metrics hook: an event was created now (any shard, any target).
    /// Attribution uses the *sender's* clock, so summing per-shard
    /// interval counts reproduces the sequential recorder exactly.
    #[inline]
    fn note_push(&mut self) {
        if let Some(m) = self.metrics.as_mut() {
            m.event_pushed(self.now);
        }
    }

    /// Push a band-0 event (source emission / PE completion) on this shard.
    fn push_event(&mut self, t: f64, kind: EventKind) {
        self.note_push();
        self.events.push(t, kind);
    }

    /// Push a band-1 communication event local to this shard.
    fn push_event_ord(&mut self, t: f64, ord: u64, kind: EventKind) {
        self.note_push();
        self.events.push_ord(t, ord, kind);
    }

    /// Mark a node as possibly able to fire. Sources are paced externally
    /// and never enter the ready set.
    #[inline]
    fn mark_dirty(&mut self, node: usize) {
        if !self.dirty[node] && self.shared.node_roles[node] != NodeRole::Source {
            self.dirty[node] = true;
            self.dirty_count[self.shared.pe_of_node[node]] += 1;
        }
    }

    #[inline]
    fn clear_dirty(&mut self, node: usize) {
        if self.dirty[node] {
            self.dirty[node] = false;
            self.dirty_count[self.shared.pe_of_node[node]] -= 1;
        }
    }

    /// Fire the owned startup constants (in global order) and seed the
    /// owned sources — everything that happens before the first event pop.
    pub(crate) fn init(&mut self) {
        let shared = Arc::clone(&self.shared);
        let shared = &*shared;
        // Constants fire at t = 0, before any source sample.
        for &(node, method) in &shared.tables.consts {
            if !self.owns_node(node) {
                continue;
            }
            self.record_untriggered_begin(node, method);
            let emitted = self.node_mut(node).fire_untriggered(method);
            // The firing may change the node's private state (e.g. a
            // feedback primer becoming ready), so re-plan it.
            self.mark_dirty(node);
            let mut wave = std::mem::take(&mut self.wave_buf);
            wave.clear();
            self.route::<true, true>(shared, node, emitted, &mut wave);
            self.record_untriggered_end(node);
            self.dispatch_wave::<true, true>(shared, &mut wave);
            self.wave_buf = wave;
        }
        for s in 0..self.shared.tables.sources.len() {
            if self.owns_node(self.shared.tables.sources[s].node) {
                self.push_event(0.0, EventKind::SourceEmit { source: s });
            }
        }
    }

    /// Process every pending event with `t < end`, in `(t, ord)` order.
    /// Returns the timestamp of the first unprocessed event, or `+inf` when
    /// the queue drained. The sequential engine calls this once with
    /// `end = +inf`; the parallel engine calls it per synchronization
    /// window with the coordinator's conservative bound.
    pub(crate) fn run_window(&mut self, end: f64) -> f64 {
        self.run_events(end, usize::MAX).1
    }

    /// Process up to `max_events` pending events in `(t, ord)` order,
    /// regardless of timestamp. Returns the number processed — less than
    /// `max_events` only when the queue drained. Chunking the drain this
    /// way cannot change any result: every iteration pops and handles
    /// exactly the event `run_window(+inf)` would have handled next, so
    /// any sequence of `run_budget` calls processes the identical event
    /// sequence with identical state transitions. This is the fleet
    /// host's round-based stepping entry point (DESIGN.md §16).
    pub(crate) fn run_budget(&mut self, max_events: usize) -> usize {
        self.run_events(f64::INFINITY, max_events).0
    }

    /// Bounded speculation: like [`run_budget`], but refuses to pop any
    /// event at or past `horizon`. The optimistic workers use this to cap
    /// how far a shard's virtual time can outrun the conservative window —
    /// speculating without a time bound lets a fast shard race arbitrarily
    /// ahead, and every late cross-shard message then triggers an
    /// arbitrarily deep rollback (the Time Warp anti-storm).
    pub(crate) fn run_speculate(&mut self, horizon: f64, max_events: usize) -> usize {
        self.run_events(horizon, max_events).0
    }

    /// The event loop, bounded by both time and count: handle pending
    /// events in `(t, ord)` order until the next one is at or past `end`
    /// or `max_events` were handled. Returns the number handled and the
    /// timestamp of the event that stopped the loop (`+inf` when the queue
    /// drained or the count ran out).
    ///
    /// Monomorphizes the loop on which observers are attached. `TRC`
    /// covers the trace recorder (trace records, stall attribution,
    /// exhaustive wakes); `OBS` additionally covers the metrics recorder.
    /// A metrics-only run takes `<true, false>`, so it pays the metrics
    /// hooks and nothing of the heavier trace machinery — that
    /// specialization is what keeps always-on metrics inside their ≤5%
    /// overhead budget (DESIGN.md §15).
    fn run_events(&mut self, end: f64, max_events: usize) -> (usize, f64) {
        if self.trace.is_some() {
            self.event_loop::<true, true>(end, max_events)
        } else if self.metrics.is_some() {
            self.event_loop::<true, false>(end, max_events)
        } else {
            self.event_loop::<false, false>(end, max_events)
        }
    }

    /// [`run_events`](Self::run_events) for one observer configuration.
    /// `TRC` implies `OBS` at every call site. All instantiations process
    /// events identically; the flags only gate code that is dynamically
    /// dead in the configuration that selects them.
    fn event_loop<const OBS: bool, const TRC: bool>(
        &mut self,
        end: f64,
        max_events: usize,
    ) -> (usize, f64) {
        // The handlers read the shared tables while mutating the engine;
        // one handle per call (not per event) lends them both.
        let shared = Arc::clone(&self.shared);
        let shared = &*shared;
        let mut done = 0;
        while done < max_events {
            let Some(ev) = self.events.pop() else { break };
            if ev.t >= end {
                // Past the bound: put it back (re-insertion keeps its
                // original `(t, seq)` key, so nothing is reordered).
                self.events.push_ord(ev.t, ev.seq, ev.payload);
                return (done, ev.t);
            }
            self.now = ev.t;
            self.opt_note_pop(ev.t, ev.seq);
            if OBS {
                if let Some(m) = self.metrics.as_mut() {
                    m.event_popped(ev.t);
                }
            }
            self.processed += 1;
            match ev.payload {
                EventKind::SourceEmit { source } => {
                    self.handle_source_emit::<OBS, TRC>(shared, source)
                }
                EventKind::PeDone { pe } => self.handle_pe_done::<OBS, TRC>(shared, pe),
                EventKind::ChannelArrival { chan } => {
                    self.handle_channel_arrival::<OBS, TRC>(shared, chan);
                }
                EventKind::CreditReturn { chan } => {
                    self.handle_credit_return::<OBS, TRC>(shared, chan);
                }
            }
            done += 1;
        }
        (done, f64::INFINITY)
    }

    /// The shard's current virtual time (timestamp of the last processed
    /// event; `0.0` before any event).
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Events popped and handled so far (committed events only under
    /// optimistic sync).
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    /// Timestamp of this shard's earliest pending event (`+inf` when idle),
    /// without processing it.
    pub(crate) fn next_pending(&mut self) -> f64 {
        match self.events.pop() {
            Some(ev) => {
                let t = ev.t;
                self.events.push_ord(ev.t, ev.seq, ev.payload);
                t
            }
            None => f64::INFINITY,
        }
    }

    /// Move everything other shards sent us into the local event queue.
    /// Not metered: the *sender* counted each push on its own clock when
    /// it sent it.
    pub(crate) fn drain_inbox(&mut self) {
        let Some(links) = self.links.as_deref() else {
            return;
        };
        let msgs = std::mem::take(&mut *links[self.shard].lock().unwrap());
        for m in msgs {
            match m.kind {
                MsgKind::Arrival(item) => {
                    self.wire[m.chan as usize].push_back(((m.ord & 0xffff_ffff) as u32, item));
                    self.events
                        .push_ord(m.t, m.ord, EventKind::ChannelArrival { chan: m.chan });
                }
                MsgKind::Credit => {
                    self.events
                        .push_ord(m.t, m.ord, EventKind::CreditReturn { chan: m.chan });
                }
                MsgKind::Anti(_) => unreachable!("anti-message under conservative sync"),
            }
        }
    }

    /// Optimistic-mode inbox drain: positives may land in this shard's
    /// virtual past (stragglers — roll back first), and anti-messages
    /// cancel positives wherever they already got to (still queued:
    /// annihilate in place; already processed: roll back past them and
    /// skip them on replay). Messages are handled strictly in inbox order,
    /// so a positive always precedes its own anti (the source shard pushed
    /// them in that order into the same inbox). `gvt` lower-bounds every
    /// arrival (asserted) — that is what makes fossil collection at GVT
    /// sound.
    pub(crate) fn drain_inbox_optimistic(&mut self, gvt: f64) {
        let Some(links) = self.links.as_deref() else {
            return;
        };
        let msgs = std::mem::take(&mut *links[self.shard].lock().unwrap());
        for m in msgs {
            debug_assert!(m.t >= gvt, "message at t={} arrived below GVT={gvt}", m.t);
            let k = key(m.t, m.ord);
            match m.kind {
                MsgKind::Arrival(item) => {
                    self.incoming_key_repair(k);
                    let seq = (m.ord & 0xffff_ffff) as u32;
                    let opt = self.opt.as_deref_mut().expect("optimistic drain");
                    opt.counters.in_appends += 1;
                    opt.in_log.push(InRec {
                        t: m.t,
                        ord: m.ord,
                        chan: m.chan,
                        kind: InKind::Arrival(item.clone()),
                    });
                    self.wire[m.chan as usize].push_back((seq, item));
                    self.events
                        .push_ord(m.t, m.ord, EventKind::ChannelArrival { chan: m.chan });
                }
                MsgKind::Credit => {
                    self.incoming_key_repair(k);
                    let opt = self.opt.as_deref_mut().expect("optimistic drain");
                    opt.counters.in_appends += 1;
                    opt.in_log.push(InRec {
                        t: m.t,
                        ord: m.ord,
                        chan: m.chan,
                        kind: InKind::Credit,
                    });
                    self.events
                        .push_ord(m.t, m.ord, EventKind::CreditReturn { chan: m.chan });
                }
                MsgKind::Anti(was_arrival) => {
                    self.cancel_positive(m.t, m.ord, m.chan, was_arrival);
                }
            }
        }
    }

    /// Straggler repair for an incoming message key `k`, shared by
    /// positives and tombstoning antis: a key at or before the last
    /// processed event forces a full rollback; a key inside the current
    /// coast-forward horizon shortens the coast (the messages the shard
    /// sent from keys ≥ `k` must be cancelled — their re-execution now
    /// happens under different inputs); a key in the future needs nothing.
    fn incoming_key_repair(&mut self, k: Key) {
        let links = self.links.as_deref();
        let opt = self.opt.as_deref_mut().expect("optimistic repair");
        if k <= opt.last_key {
            self.rollback_to(k);
        } else if opt.coasting() && k < opt.coast_end.expect("coasting") {
            // The coast suffix past `k` replays sends that are now
            // invalid (their re-execution happens under different
            // inputs). Cancel them and stop the suppression at `k`; the
            // re-execution past `k` sends fresh positives — with the
            // *same* `(t, ord)` keys, which is fine: the anti travels
            // ahead of the fresh positive in the same inbox, so the
            // destination cancels the old copy before the new arrives.
            Self::cancel_sends_from(opt, links, &mut self.min_out, k);
            opt.coast_end = Some(k);
        }
    }

    /// Apply an anti-message: the positive `(t, ord)` on `chan` was rolled
    /// back at its source. If its event is still queued it annihilates in
    /// place; if it was already processed the shard first rolls back to
    /// before it (which resurrects the positive, pending, from the
    /// checkpoint or the replay) and then removes it. Either way the
    /// removal is also appended to the input log as a [`InKind::Cancel`]
    /// record, so a *future* rollback to a checkpoint captured before this
    /// anti arrived re-applies it in drain order — without that record the
    /// stale snapshot would resurrect the positive alongside any re-sent
    /// copy of it.
    fn cancel_positive(&mut self, t: f64, ord: u64, chan: u32, was_arrival: bool) {
        let payload_match = |p: &EventKind| match p {
            EventKind::ChannelArrival { chan: c } => was_arrival && *c == chan,
            EventKind::CreditReturn { chan: c } => !was_arrival && *c == chan,
            _ => false,
        };
        let seq = (ord & 0xffff_ffff) as u32;
        let k = key(t, ord);
        let opt = self.opt.as_deref_mut().expect("optimistic cancel");
        if k <= opt.last_key {
            // Already (speculatively) processed: the repair below is a
            // full rollback to before it.
            opt.counters.antis_tombstoned += 1;
        } else {
            // Still queued: annihilate in place. Queued implies not yet
            // processed, so the repair below can only shorten a coast
            // (cancelling our own downstream sends attributed to the
            // now-never-happening event), never roll back.
            opt.counters.antis_annihilated += 1;
        }
        self.incoming_key_repair(k);
        // The queue removal and wire purge must come *after* any restore:
        // a rollback replaces the event queue and wire with the
        // checkpoint's (plus the input-log replay), which always hold the
        // not-yet-reprocessed positive. Removing first and restoring
        // after would resurrect the event without its item.
        let removed = self.events.remove_ord(t, ord).map(|p| {
            debug_assert!(payload_match(&p), "anti-message key collision");
        });
        debug_assert!(
            removed.is_some(),
            "anti-message names a positive missing from the event queue"
        );
        if was_arrival {
            self.wire[chan as usize].retain(|(s, _)| *s != seq);
        }
        let opt = self.opt.as_deref_mut().expect("optimistic cancel");
        opt.in_log.push(InRec {
            t,
            ord,
            chan,
            kind: InKind::Cancel { was_arrival },
        });
    }

    /// Earliest timestamp this shard sent to another shard's inbox since
    /// the last call (`+inf` if none); resets the accumulator.
    pub(crate) fn take_min_out(&mut self) -> f64 {
        std::mem::replace(&mut self.min_out, f64::INFINITY)
    }

    // ---- Time Warp (optimistic sync) machinery; see `crate::optimistic`
    // ---- and DESIGN.md §17. All methods are no-ops unless `opt_enable`
    // ---- switched the shard into optimistic mode.

    /// Switch this shard into optimistic mode. Called once, after
    /// [`init`](Self::init) and before the first window, so the round-zero
    /// checkpoint (at [`crate::optimistic::KEY_MIN`], which every message
    /// key dominates) is always a valid rollback target until fossil
    /// collection retires it.
    pub(crate) fn opt_enable(&mut self) {
        debug_assert!(self.opt.is_none(), "optimistic mode enabled twice");
        debug_assert!(
            self.trace.is_none(),
            "checkpoints do not capture the trace; traced runs are sequential"
        );
        self.opt = Some(Box::new(OptState::new()));
        self.opt_checkpoint();
    }

    /// Per-pop bookkeeping hook for optimistic mode: track the key of the
    /// event being processed (send attribution and checkpoint placement)
    /// and end coast-forward once execution passes the straggler that
    /// caused it. Free when optimistic mode is off.
    #[inline]
    fn opt_note_pop(&mut self, t: f64, ord: u64) {
        if let Some(opt) = self.opt.as_deref_mut() {
            let k = key(t, ord);
            opt.cur_key = k;
            if let Some(end) = opt.coast_end {
                if k >= end {
                    debug_assert_eq!(
                        opt.out_cursor,
                        opt.out_log.len(),
                        "coast-forward ended without replaying every surviving send"
                    );
                    opt.coast_end = None;
                }
            }
            opt.last_key = k;
        }
    }

    /// Take a checkpoint of the full mutable state at the current position
    /// (always between events). Skipped while coast-forwarding (that state
    /// is a re-execution of committed work, and mixing the replay cursor
    /// into checkpoints would complicate restore for no coverage — the
    /// rollback target below the coast always survives) and deduplicated
    /// when no event was processed since the last checkpoint.
    pub(crate) fn opt_checkpoint(&mut self) {
        let mut opt = self.opt.take().expect("checkpoint without optimistic mode");
        if opt.coast_end.is_some()
            || opt
                .ckpts
                .back()
                .is_some_and(|ck| ck.last_key == opt.last_key)
        {
            self.opt = Some(opt);
            return;
        }
        let mut ck = opt.pool.pop().unwrap_or_default();
        ck.last_key = opt.last_key;
        ck.in_len = opt.in_log.len();
        ck.out_len = opt.out_log.len();
        self.capture_into(&mut ck);
        if cfg!(debug_assertions) {
            ck.digest = self.opt_state_digest();
        }
        opt.counters.checkpoints += 1;
        opt.ckpts.push_back(ck);
        self.opt = Some(opt);
    }

    /// Fossil-collect checkpoints dominated by the new GVT (see
    /// [`crate::optimistic::OptState::fossil_collect`]).
    pub(crate) fn opt_fossil(&mut self, gvt: f64) {
        if let Some(opt) = self.opt.as_deref_mut() {
            opt.fossil_collect(gvt);
        }
    }

    /// Count one injected straggler stall (fault-injection observability).
    pub(crate) fn opt_note_stall(&mut self) {
        if let Some(opt) = self.opt.as_deref_mut() {
            opt.counters.stalls += 1;
        }
    }

    /// Clone the full mutable surface into `ck`, recycling its buffers.
    /// Deliberately excluded: `min_out` (a coordinator accumulator whose
    /// undercount after rollback is only conservative), the routing/wave
    /// scratch and `rw_memo` (empty respectively pure between events), and
    /// the Time Warp state itself (logs and counters must survive
    /// rollbacks). No trace recorder is captured: a traced run never
    /// reaches the parallel engine.
    fn capture_into(&self, ck: &mut Checkpoint) {
        ck.now = self.now;
        ck.rr.clone_from(&self.rr);
        ck.pe_inflight.clone_from(&self.pe_inflight);
        ck.dirty.clone_from(&self.dirty);
        ck.dirty_count.clone_from(&self.dirty_count);
        match ck.events.as_mut() {
            Some(q) => q.clone_from(&self.events),
            None => ck.events = Some(self.events.clone()),
        }
        ck.stats.clone_from(&self.stats);
        ck.node_busy.clone_from(&self.node_busy);
        ck.violations = self.violations;
        ck.sink_eofs.clone_from(&self.sink_eofs);
        ck.frame_start_times.clone_from(&self.frame_start_times);
        ck.custom_token_emissions
            .clone_from(&self.custom_token_emissions);
        ck.source_progress.clone_from(&self.source_progress);
        ck.budget_overruns.clone_from(&self.budget_overruns);
        ck.node_max_queue.clone_from(&self.node_max_queue);
        ck.credits.clone_from(&self.credits);
        ck.busy_until.clone_from(&self.busy_until);
        if ck.wire.len() == self.wire.len() {
            for (dst, src) in ck.wire.iter_mut().zip(self.wire.iter()) {
                dst.clone_from(src);
            }
        } else {
            ck.wire.clone_from(&self.wire);
        }
        ck.send_seq.clone_from(&self.send_seq);
        ck.credit_seq.clone_from(&self.credit_seq);
        ck.processed = self.processed;
        ck.metrics.clone_from(&self.metrics);
        ck.pe_stall.clone_from(&self.pe_stall);
        ck.head_data.clone_from(&self.head_data);
        ck.head_ctrl.clone_from(&self.head_ctrl);
        ck.space_waiting.clone_from(&self.space_waiting);
        let mut idx = 0;
        for pe in 0..self.shared.residents.len() {
            if self.shard_of_pe[pe] != self.shard {
                continue;
            }
            for &node in &self.shared.residents[pe] {
                if ck.nodes.len() == idx {
                    ck.nodes.push(crate::optimistic::NodeSnap::empty());
                }
                ck.nodes[idx].capture(node, self.node(node));
                idx += 1;
            }
        }
        ck.nodes.truncate(idx);
    }

    /// Write a checkpoint back over the live state (the inverse of
    /// [`capture_into`](Self::capture_into)). The event counter and the
    /// metrics recorder are overwritten with their captured values, so the
    /// rolled-back events vanish from every artifact exactly as if they
    /// had never run.
    fn restore_from(&mut self, ck: &Checkpoint) {
        self.now = ck.now;
        self.rr.clone_from(&ck.rr);
        self.pe_inflight.clone_from(&ck.pe_inflight);
        self.dirty.clone_from(&ck.dirty);
        self.dirty_count.clone_from(&ck.dirty_count);
        self.events
            .clone_from(ck.events.as_ref().expect("checkpoint without queue"));
        self.stats.clone_from(&ck.stats);
        self.node_busy.clone_from(&ck.node_busy);
        self.violations = ck.violations;
        self.sink_eofs.clone_from(&ck.sink_eofs);
        self.frame_start_times.clone_from(&ck.frame_start_times);
        self.custom_token_emissions
            .clone_from(&ck.custom_token_emissions);
        self.source_progress.clone_from(&ck.source_progress);
        self.budget_overruns.clone_from(&ck.budget_overruns);
        self.node_max_queue.clone_from(&ck.node_max_queue);
        self.credits.clone_from(&ck.credits);
        self.busy_until.clone_from(&ck.busy_until);
        for (dst, src) in self.wire.iter_mut().zip(ck.wire.iter()) {
            dst.clone_from(src);
        }
        self.send_seq.clone_from(&ck.send_seq);
        self.credit_seq.clone_from(&ck.credit_seq);
        self.processed = ck.processed;
        self.metrics.clone_from(&ck.metrics);
        self.pe_stall.clone_from(&ck.pe_stall);
        self.head_data.clone_from(&ck.head_data);
        self.head_ctrl.clone_from(&ck.head_ctrl);
        self.space_waiting.clone_from(&ck.space_waiting);
        for snap in &ck.nodes {
            snap.restore(self.node_mut(snap.node));
        }
        debug_assert_eq!(
            self.opt_state_digest(),
            ck.digest,
            "rollback did not restore the checkpoint byte-identically"
        );
    }

    /// FNV digest of the rollback-relevant state surface, used (in debug
    /// builds) to prove that restore reproduces the captured state.
    fn opt_state_digest(&self) -> u64 {
        fn mix(h: &mut u64, v: u64) {
            *h ^= v;
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        mix(&mut h, self.now.to_bits());
        mix(&mut h, self.events.len() as u64);
        mix(&mut h, self.violations);
        for &c in &self.credits {
            mix(&mut h, c as u64);
        }
        for (&s, &r) in self.send_seq.iter().zip(self.credit_seq.iter()) {
            mix(&mut h, (s as u64) << 32 | r as u64);
        }
        for (w, &b) in self.wire.iter().zip(self.busy_until.iter()) {
            mix(&mut h, w.len() as u64);
            for (seq, _) in w {
                mix(&mut h, *seq as u64);
            }
            mix(&mut h, b.to_bits());
        }
        for &p in &self.source_progress {
            mix(&mut h, p);
        }
        for &t in self
            .sink_eofs
            .iter()
            .flatten()
            .chain(self.frame_start_times.iter())
        {
            mix(&mut h, t.to_bits());
        }
        mix(&mut h, self.processed);
        for pe in 0..self.shared.residents.len() {
            if self.shard_of_pe[pe] != self.shard {
                continue;
            }
            mix(&mut h, self.rr[pe] as u64);
            mix(&mut h, self.dirty_count[pe] as u64);
            mix(&mut h, self.pe_inflight[pe].is_some() as u64);
            for &node in &self.shared.residents[pe] {
                let rt = self.node(node);
                mix(&mut h, rt.firings);
                for q in &rt.queues {
                    mix(&mut h, q.len() as u64);
                }
            }
        }
        h
    }

    /// Full rollback: incoming key `k` is at or before the last processed
    /// event. Restore the latest checkpoint strictly dominated by `k`,
    /// cancel the invalidated sends with anti-messages, re-inject the
    /// post-checkpoint received messages (and cancellations), and arrange
    /// coast-forward send suppression for the committed prefix below `k`.
    fn rollback_to(&mut self, k: Key) {
        let mut opt = self.opt.take().expect("rollback without optimistic mode");
        while opt.ckpts.back().is_some_and(|ck| ck.last_key >= k) {
            let ck = opt.ckpts.pop_back().expect("len checked");
            opt.pool.push(ck);
        }
        let undone = self.processed;
        let (in_len, out_len, last_key) = {
            let ck = opt
                .ckpts
                .back()
                .expect("rollback target was fossil-collected below GVT");
            self.restore_from(ck);
            (ck.in_len, ck.out_len, ck.last_key)
        };
        opt.counters.rollbacks += 1;
        opt.counters.events_rolled_back += undone - self.processed;
        opt.out_cursor = out_len;
        opt.cur_key = last_key;
        opt.last_key = last_key;
        opt.coast_end = Some(k);
        Self::cancel_sends_from(&mut opt, self.links.as_deref(), &mut self.min_out, k);
        // Re-inject everything received after the capture point, in drain
        // order — including anti-message cancellations, which must strip
        // positives the snapshot still holds before any re-sent copy is
        // re-added. Not metered, exactly like `drain_inbox` (the sender
        // metered the push).
        for rec in &opt.in_log[in_len..] {
            match &rec.kind {
                InKind::Arrival(item) => {
                    self.wire[rec.chan as usize].push_back((rec.seq(), item.clone()));
                    self.events.push_ord(
                        rec.t,
                        rec.ord,
                        EventKind::ChannelArrival { chan: rec.chan },
                    );
                }
                InKind::Credit => {
                    self.events.push_ord(
                        rec.t,
                        rec.ord,
                        EventKind::CreditReturn { chan: rec.chan },
                    );
                }
                InKind::Cancel { was_arrival } => {
                    let removed = self.events.remove_ord(rec.t, rec.ord);
                    debug_assert!(
                        removed.is_some(),
                        "replayed anti-message found no positive to cancel"
                    );
                    if *was_arrival {
                        let seq = rec.seq();
                        self.wire[rec.chan as usize].retain(|(s, _)| *s != seq);
                    }
                }
            }
        }
        self.opt = Some(opt);
    }

    /// Truncate the (src_key-monotone) suffix of sends caused by events
    /// with key ≥ `k` and ship one anti-message per entry. Antis are not
    /// metered: their positives' metrics records were rolled back with the
    /// checkpoint, so the committed record never mentions either side.
    /// Anti timestamps equal their positives'
    /// (≥ `k` ≥ GVT), so `min_out` holds the window back for them exactly
    /// like for positives.
    fn cancel_sends_from(
        opt: &mut OptState,
        links: Option<&[Mutex<Vec<OutMsg>>]>,
        min_out: &mut f64,
        k: Key,
    ) {
        let mut cut = opt.out_log.len();
        while cut > 0 && opt.out_log[cut - 1].src_key >= k {
            cut -= 1;
        }
        if cut == opt.out_log.len() {
            return;
        }
        let links = links.expect("cross-shard send without links");
        for rec in opt.out_log.drain(cut..) {
            opt.counters.antis_sent += 1;
            *min_out = min_out.min(rec.t);
            links[rec.dst as usize].lock().unwrap().push(OutMsg {
                t: rec.t,
                ord: rec.ord,
                chan: rec.chan,
                kind: MsgKind::Anti(!rec.credit),
            });
        }
    }

    /// Extract the owned results, releasing the borrows on the node slots.
    pub(crate) fn into_outcome(self) -> ShardOutcome {
        ShardOutcome {
            stats: self.stats,
            node_busy: self.node_busy,
            violations: self.violations,
            sink_eofs: self.sink_eofs,
            frame_start_times: self.frame_start_times,
            custom_token_emissions: self.custom_token_emissions,
            budget_overruns: self.budget_overruns,
            node_max_queue: self.node_max_queue,
            credits: self.credits,
            now: self.now,
            processed: self.processed,
            trace: self.trace,
            metrics: self.metrics,
            sync: self.opt.as_deref().map(|o| o.counters).unwrap_or_default(),
        }
    }

    /// Trace a zero-cost untriggered (source/const) firing: the engine
    /// charges it no PE time, so it is recorded as a begin/end pair at the
    /// current instant, bracketing its routing effects.
    fn record_untriggered_begin(&mut self, node: usize, method: usize) {
        let (t, pe) = (self.now, self.shared.pe_of_node[node] as u32);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::FiringBegin {
                t,
                node: node as u32,
                method: method as u32,
                pe,
                cycles: 0,
            });
        }
    }

    fn record_untriggered_end(&mut self, node: usize) {
        let (t, pe) = (self.now, self.shared.pe_of_node[node] as u32);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::FiringEnd {
                t,
                node: node as u32,
                pe,
            });
        }
    }

    /// Inject one sample of `source` on its fixed schedule and schedule the
    /// next injection.
    fn handle_source_emit<const OBS: bool, const TRC: bool>(
        &mut self,
        shared: &Shared,
        source: usize,
    ) {
        let s = self.shared.tables.sources[source];
        if source == 0 && self.source_progress[source].is_multiple_of(s.frame.area()) {
            self.frame_start_times.push(self.now);
        }
        // Check capacity at the destinations before injecting; a full queue
        // at the scheduled time is a missed deadline (counted once per
        // injection, however many destinations are saturated). Delayed
        // destinations are judged by the sender-side credit count — the
        // receiver queue may be remote.
        let full = self.shared.dests[s.node][0].iter().any(|d| {
            if d.chan != u32::MAX {
                self.credits[d.chan as usize] <= 0
            } else {
                let (dn, dp) = (d.dn as usize, d.dp as usize);
                self.node(dn).queues[dp].len() >= self.shared.cap_into[dn][dp]
            }
        });
        if full {
            self.record_input_overrun();
        }
        if TRC {
            self.record_untriggered_begin(s.node, s.method);
        }
        let emitted = self.node_mut(s.node).fire_untriggered(s.method);
        let mut wave = std::mem::take(&mut self.wave_buf);
        wave.clear();
        self.route::<OBS, TRC>(shared, s.node, emitted, &mut wave);
        if TRC {
            self.record_untriggered_end(s.node);
        }
        self.dispatch_wave::<OBS, TRC>(shared, &mut wave);
        self.wave_buf = wave;

        self.source_progress[source] += 1;
        let total = s.frame.area() * self.shared.frames as u64;
        if self.source_progress[source] < total {
            let period = 1.0 / (s.rate_hz * s.frame.area() as f64);
            let t_next = self.source_progress[source] as f64 * period;
            if OBS {
                self.note_push();
            }
            self.events.push(t_next, EventKind::SourceEmit { source });
        }
    }

    /// The single violation-counting code path: every source input
    /// overrun increments the always-on counter behind
    /// [`RealTimeVerdict::violations`] *and* feeds the deadline monitor
    /// (interval count + first-violation timestamp) when metrics are on.
    #[inline]
    fn record_input_overrun(&mut self) {
        self.violations += 1;
        if let Some(m) = self.metrics.as_mut() {
            m.input_overrun(self.now);
        }
    }

    /// A PE finishes its firing: account its busy time, deliver the
    /// emissions, and dispatch the touched PEs plus the PE itself. The
    /// own-PE push is unconditional (it bypasses the wave mask).
    fn handle_pe_done<const OBS: bool, const TRC: bool>(&mut self, shared: &Shared, pe: usize) {
        let inflight = self.pe_inflight[pe]
            .take()
            .expect("PeDone without inflight");
        self.stats[pe].run += inflight.run_s;
        self.stats[pe].read += inflight.read_s;
        self.stats[pe].write += inflight.write_s;
        self.node_busy[inflight.node] += inflight.run_s + inflight.read_s + inflight.write_s;
        if OBS {
            if let Some(m) = self.metrics.as_mut() {
                m.firing_complete(
                    self.now,
                    pe,
                    inflight.node,
                    inflight.run_s + inflight.read_s + inflight.write_s,
                );
            }
        }
        if TRC {
            if let Some(trace) = self.trace.as_mut() {
                trace.record(TraceEvent::FiringEnd {
                    t: self.now,
                    node: inflight.node as u32,
                    pe: pe as u32,
                });
            }
        }
        let mut wave = std::mem::take(&mut self.wave_buf);
        wave.clear();
        self.route::<OBS, TRC>(shared, inflight.node, inflight.emitted, &mut wave);
        wave.push(pe);
        self.dispatch_wave::<OBS, TRC>(shared, &mut wave);
        self.wave_buf = wave;
    }

    /// Dispatch a one-PE wave: an arrival or a returned credit may have
    /// given `pe` work.
    fn wake<const OBS: bool, const TRC: bool>(&mut self, shared: &Shared, pe: usize) {
        let mut wave = std::mem::take(&mut self.wave_buf);
        wave.clear();
        wave.push(pe);
        self.dispatch_wave::<OBS, TRC>(shared, &mut wave);
        self.wave_buf = wave;
    }

    /// Recompute the head-mask bit of one input port after its queue head
    /// changed (a firing popped it). Mask planner only.
    #[inline]
    fn refresh_head(&mut self, node: usize, port: usize) {
        let bit = 1u64 << port;
        self.head_data[node] &= !bit;
        self.head_ctrl[node] &= !bit;
        match self.node(node).queues[port].front() {
            Some(Item::Window(_)) => self.head_data[node] |= bit,
            Some(Item::Control(_)) => self.head_ctrl[node] |= bit,
            None => {}
        }
    }

    /// Launch `item` onto delayed channel `chan`: spend a credit, serialize
    /// behind earlier items on the wire (store-and-forward), and schedule
    /// the arrival — locally, or into the destination shard's inbox.
    fn delayed_send(&mut self, chan: u32, item: Item) {
        let c = self.shared.channels[chan as usize];
        let ci = chan as usize;
        self.credits[ci] -= 1;
        let words = item.words();
        let depart = self.now.max(self.busy_until[ci]);
        let ser = words as f64 * c.ser_per_word_s;
        let arrival = depart + ser + c.latency_s;
        self.busy_until[ci] = depart + ser;
        let seq = self.send_seq[ci];
        self.send_seq[ci] += 1;
        let ord = band1_ord(2 * chan as u64, seq);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(TraceEvent::CommSend {
                t: self.now,
                chan,
                words: words as u32,
                arrival,
            });
        }
        let dst_shard = self.shard_of_pe[self.shared.pe_of_node[c.dst]];
        if dst_shard == self.shard {
            self.wire[ci].push_back((seq, item));
            self.push_event_ord(arrival, ord, EventKind::ChannelArrival { chan });
        } else {
            self.send_cross(arrival, ord, chan, dst_shard, MsgKind::Arrival(item));
        }
    }

    /// Ship a communication event to `dst_shard`'s inbox, metered exactly
    /// like a local push. Optimistic mode additionally logs the send so a
    /// rollback can cancel it with an anti-message — or, while
    /// coast-forwarding, *suppresses* the inbox push entirely: the
    /// identical message was delivered before the rollback and survived
    /// it, and the metrics record (restored with the checkpoint) is
    /// re-made by the hook above, so suppression is the one difference
    /// between first execution and replay.
    fn send_cross(&mut self, t: f64, ord: u64, chan: u32, dst_shard: usize, kind: MsgKind) {
        self.note_push();
        if let Some(opt) = self.opt.as_deref_mut() {
            if opt.coasting() {
                let rec = opt
                    .out_log
                    .get(opt.out_cursor)
                    .expect("coast-forward re-send past the surviving send log");
                debug_assert!(
                    rec.t.to_bits() == t.to_bits()
                        && rec.ord == ord
                        && rec.chan == chan
                        && rec.dst as usize == dst_shard,
                    "coast-forward re-send diverged from the surviving send log"
                );
                opt.out_cursor += 1;
                return;
            }
            opt.counters.cross_sends += 1;
            opt.out_log.push(OutRec {
                src_key: opt.cur_key,
                t,
                ord,
                chan,
                dst: dst_shard as u32,
                credit: matches!(kind, MsgKind::Credit),
            });
        }
        // Folded only for messages that actually enter an inbox: a
        // suppressed coast-forward re-send (early return above) has
        // nothing in flight, and counting it would drag the GVT horizon
        // below timestamps the fleet already committed.
        self.min_out = self.min_out.min(t);
        let links = self
            .links
            .as_deref()
            .expect("cross-shard send without links");
        links[dst_shard]
            .lock()
            .unwrap()
            .push(OutMsg { t, ord, chan, kind });
    }

    /// An in-flight item lands: pop it off the wire into the destination
    /// queue, then dispatch the destination PE.
    fn handle_channel_arrival<const OBS: bool, const TRC: bool>(
        &mut self,
        shared: &Shared,
        chan: u32,
    ) {
        let c = self.shared.channels[chan as usize];
        let (_seq, item) = self.wire[chan as usize]
            .pop_front()
            .expect("arrival without in-flight item");
        let (dn, dp) = (c.dst, c.dst_port);
        if self.shared.node_roles[dn] == NodeRole::Sink {
            if let Item::Control(ControlToken::EndOfFrame) = item {
                self.sink_eofs[dn].push(self.now);
            }
        }
        let depth = {
            let queue = &mut self.node_mut(dn).queues[dp];
            queue.push_back(item.clone());
            queue.len()
        };
        if depth == 1 && self.shared.program.is_some() {
            // The item became the queue head; update the planning mask.
            let bit = 1u64 << dp;
            if matches!(item, Item::Window(_)) {
                self.head_data[dn] |= bit;
            } else {
                self.head_ctrl[dn] |= bit;
            }
        }
        if depth > self.node_max_queue[dn] {
            self.node_max_queue[dn] = depth;
        }
        if OBS {
            if let Some(m) = self.metrics.as_mut() {
                m.chan_depth(chan as usize, depth);
            }
        }
        if TRC {
            if let Some(trace) = self.trace.as_mut() {
                trace.record(TraceEvent::CommArrival { t: self.now, chan });
                trace.record(TraceEvent::QueueDepth {
                    t: self.now,
                    node: dn as u32,
                    port: dp as u32,
                    depth: depth as u32,
                });
                if let Item::Control(token) = &item {
                    trace.record(TraceEvent::Token {
                        t: self.now,
                        node: dn as u32,
                        port: dp as u32,
                        token: *token,
                    });
                }
            }
        }
        self.mark_dirty(dn);
        self.wake::<OBS, TRC>(shared, shared.pe_of_node[dn]);
    }

    /// A credit comes home: the channel's producer may have been blocked on
    /// it (it stayed dirty when declined for space), so dispatch its PE.
    fn handle_credit_return<const OBS: bool, const TRC: bool>(
        &mut self,
        shared: &Shared,
        chan: u32,
    ) {
        self.credits[chan as usize] += 1;
        let src = self.shared.channels[chan as usize].src;
        self.wake::<OBS, TRC>(shared, shared.pe_of_node[src]);
    }

    /// After a firing consumed one item from each trigger port, schedule a
    /// credit return (delayed by the channel latency) for every consumed
    /// port fed by a delayed channel — to the owning shard of the sender.
    /// `chans` is the fired method's `Shared::credit_chans` entry.
    fn return_credits(&mut self, chans: &[u32]) {
        for &chan in chans {
            let ci = chan as usize;
            let c = self.shared.channels[ci];
            let seq = self.credit_seq[ci];
            self.credit_seq[ci] += 1;
            let ord = band1_ord(2 * chan as u64 + 1, seq);
            let t = self.now + c.latency_s;
            let src_shard = self.shard_of_pe[self.shared.pe_of_node[c.src]];
            if src_shard == self.shard {
                self.push_event_ord(t, ord, EventKind::CreditReturn { chan });
            } else {
                self.send_cross(t, ord, chan, src_shard, MsgKind::Credit);
            }
        }
    }

    /// Deliver items, recording sink EOF arrival times and marking the
    /// receiving nodes dirty; the PEs that may now have new work
    /// accumulate into `touched`, and the drained buffer is recycled to
    /// the emitting node. Destinations behind a delayed channel receive
    /// nothing now — the item goes onto the channel wire and lands at its
    /// [`EventKind::ChannelArrival`]. The final destination of a fan-out
    /// receives the item by move instead of clone+drop.
    fn route<const OBS: bool, const TRC: bool>(
        &mut self,
        shared: &Shared,
        from: usize,
        mut emitted: Vec<(usize, Item)>,
        touched: &mut Vec<usize>,
    ) {
        let masks = shared.program.is_some();
        for (port, item) in emitted.drain(..) {
            let tok = match &item {
                Item::Control(t) => Some(*t),
                Item::Window(_) => None,
            };
            if let Some(ControlToken::Custom(_)) = tok {
                self.custom_token_emissions[from] += 1;
            }
            let dests = &shared.dests[from][port];
            let n_dests = dests.len();
            if n_dests == 0 {
                continue;
            }
            let mut item = Some(item);
            for (di, &d) in dests.iter().enumerate() {
                let it = if di + 1 == n_dests {
                    item.take().expect("item moved early")
                } else {
                    item.as_ref().expect("item moved early").clone()
                };
                if d.chan != u32::MAX {
                    self.delayed_send(d.chan, it);
                    continue;
                }
                let (dn, dp) = (d.dn as usize, d.dp as usize);
                if d.sink {
                    if let Some(ControlToken::EndOfFrame) = tok {
                        self.sink_eofs[dn].push(self.now);
                    }
                }
                let depth = {
                    let queue = &mut self.node_mut(dn).queues[dp];
                    queue.push_back(it);
                    queue.len()
                };
                if masks && depth == 1 {
                    let bit = 1u64 << dp;
                    if tok.is_none() {
                        self.head_data[dn] |= bit;
                    } else {
                        self.head_ctrl[dn] |= bit;
                    }
                }
                if depth > self.node_max_queue[dn] {
                    self.node_max_queue[dn] = depth;
                }
                if OBS {
                    if let Some(chan) = shared.chan_into[dn][dp] {
                        if let Some(m) = self.metrics.as_mut() {
                            m.chan_depth(chan as usize, depth);
                        }
                    }
                }
                if TRC {
                    if let Some(trace) = self.trace.as_mut() {
                        trace.record(TraceEvent::QueueDepth {
                            t: self.now,
                            node: dn as u32,
                            port: dp as u32,
                            depth: depth as u32,
                        });
                        if let Some(token) = tok {
                            trace.record(TraceEvent::Token {
                                t: self.now,
                                node: dn as u32,
                                port: dp as u32,
                                token,
                            });
                        }
                    }
                }
                self.mark_dirty(dn);
                // Busy PEs are filtered here instead of at pop time: a PE
                // in flight cannot come free within this wave (only
                // `handle_pe_done` clears it, one per event), so skipping
                // the push elides a guaranteed no-op pop without changing
                // the order of the pops that do work.
                let pe = shared.pe_of_node[dn];
                if self.pe_inflight[pe].is_none() && self.wave_test_set(pe) {
                    touched.push(pe);
                }
            }
        }
        self.node_mut(from).recycle_out_buf(emitted);
    }

    /// Attempt to start work on each PE in the worklist (popped from the
    /// back); starting a firing frees upstream queue space, so upstream
    /// PEs are re-attempted transitively. The caller recycles the vector.
    fn dispatch_wave<const OBS: bool, const TRC: bool>(
        &mut self,
        shared: &Shared,
        worklist: &mut Vec<usize>,
    ) {
        // An upstream wake's only new information is the space a firing's
        // consumption freed, so the untraced dispatcher wakes only
        // `space_waiting` producers (see the field's invariant). A *trace*
        // wakes every upstream producer: those extra scans are
        // outcome-free but trace-observable, as each may record a stall
        // transition. Metrics do NOT need them — a metrics stall is only
        // counted on a failing space check of a fireable plan, and any
        // such node is already `space_waiting` (marked by the scan that
        // first stalled it), so the filtered dispatcher re-scans exactly
        // the nodes whose stalls the exhaustive one would count.
        let exhaustive = TRC && self.trace.is_some();
        while let Some(pe) = worklist.pop() {
            self.wave_clear(pe);
            if self.pe_inflight[pe].is_some() {
                continue;
            }
            if let Some(node) = self.try_start::<OBS, TRC>(shared, pe) {
                for i in 0..self.shared.upstream[node].len() {
                    let up = self.shared.upstream[node][i];
                    if exhaustive || self.space_waiting[up] {
                        let up_pe = self.shared.pe_of_node[up];
                        // Same busy-at-push filter as `route`: the started
                        // PEs only accumulate within a wave, so a busy
                        // upstream PE would be skipped at its pop anyway.
                        if self.pe_inflight[up_pe].is_none() && self.wave_test_set(up_pe) {
                            worklist.push(up_pe);
                        }
                    }
                }
                // The PE itself is now busy; it will be revisited at PeDone.
            } else if TRC && self.trace.is_some() {
                self.record_stall(pe);
            }
        }
    }

    /// Attribute why `pe` failed to start a firing just now, from pure
    /// reads of its residents' state. Any resident with a fireable plan
    /// must have been blocked by `space_ok` (that is the only way
    /// `try_start` declines a plan), so back-pressure wins the attribution;
    /// otherwise queued-but-untriggerable inputs mean the PE is starved,
    /// and an empty PE is idle.
    fn stall_cause(&self, pe: usize) -> StallCause {
        let mut has_items = false;
        for &node in &self.shared.residents[pe] {
            if self.shared.node_roles[node] == NodeRole::Source {
                continue;
            }
            let n = self.node(node);
            if n.plan().is_some() {
                return StallCause::OutputBlocked;
            }
            has_items = has_items || n.queued_items() > 0;
        }
        if has_items {
            StallCause::InputStarved
        } else {
            StallCause::Idle
        }
    }

    /// Record a stall transition for `pe` if its attributed cause changed
    /// since the last record. Only called when tracing is enabled.
    fn record_stall(&mut self, pe: usize) {
        let cause = self.stall_cause(pe);
        if self.pe_stall[pe] != Some(cause) {
            self.pe_stall[pe] = Some(cause);
            let t = self.now;
            self.trace.as_mut().unwrap().record(TraceEvent::Stall {
                t,
                pe: pe as u32,
                cause,
            });
        }
    }

    /// `Ok` when every destination of the method's outputs has room for
    /// this firing's worst-case emissions (2 items of slack), scanning the
    /// method's precomputed check list; `Err` identifies the first check
    /// that declined (the channel feeding the full queue) so the caller
    /// can attribute the stall.
    /// Delayed channels are judged by the local credit count — never by
    /// receiver state, so the check stays shard-local.
    #[inline]
    fn space_ok(&self, checks: &[SpaceCheck]) -> std::result::Result<(), u32> {
        for c in checks {
            match *c {
                SpaceCheck::Credit { chan } => {
                    if self.credits[chan as usize] < 2 {
                        return Err(chan);
                    }
                }
                SpaceCheck::Queue { dn, dp, cap, chan } => {
                    if self.node(dn as usize).queues[dp as usize].len() + 2 > cap as usize {
                        return Err(chan);
                    }
                }
            }
        }
        Ok(())
    }

    /// Metrics hook: a plannable firing was declined for downstream space
    /// on `chan`.
    #[inline]
    fn note_stall(&mut self, chan: u32) {
        if let Some(m) = self.metrics.as_mut() {
            m.chan_stall(self.now, chan as usize);
        }
    }

    /// Try to begin one firing on `pe`; returns the node that fired.
    ///
    /// Residents are scanned in round-robin order, skipping clean nodes
    /// (their inputs have not changed since they last failed to plan, so
    /// they still cannot fire). A dirty node that plans `None` is cleaned;
    /// one that is only blocked on downstream space stays dirty (and is
    /// flagged `space_waiting`), because space freeing re-triggers a
    /// dispatch of this PE. The round-robin pointer advances exactly as in
    /// an exhaustive scan.
    ///
    /// The backends differ here and nowhere else: with a lowered program
    /// the node plans by mask test and fires its fused routine; without
    /// one it plans by trigger scan and fires through
    /// [`RtNode::execute_with_cost`]. Both return the same action, read
    /// words and cycles for the same state, so everything after is shared.
    fn try_start<const OBS: bool, const TRC: bool>(
        &mut self,
        shared: &Shared,
        pe: usize,
    ) -> Option<usize> {
        if self.dirty_count[pe] == 0 {
            return None;
        }
        let len = shared.residents[pe].len();
        // Round-robin over the residents starting at `rr[pe]`, with the
        // wraparound as a compare instead of a modulo.
        let mut idx = self.rr[pe];
        for _ in 0..len {
            let cur = idx;
            idx += 1;
            if idx == len {
                idx = 0;
            }
            let node = shared.residents[pe][cur];
            if !self.dirty[node] {
                continue;
            }
            let lowered = shared.program.as_deref().map(|p| &p.nodes[node]);
            let action = {
                let n = self.node(node);
                match lowered {
                    Some(tn) => {
                        debug_assert_eq!(
                            bp_codegen::head_masks(&n.queues),
                            (self.head_data[node], self.head_ctrl[node]),
                            "stale head masks for node {node}"
                        );
                        tn.plan(
                            self.head_data[node],
                            self.head_ctrl[node],
                            &n.queues,
                            n.behavior.as_ref(),
                        )
                    }
                    None => n.plan(),
                }
            };
            let Some(action) = action else {
                self.clear_dirty(node);
                continue;
            };
            let mi = match action {
                Action::Fire { method } | Action::Forward { method, .. } => method,
            };
            if let Err(chan) = self.space_ok(&shared.space[node][mi]) {
                // Plannable but space-blocked: only downstream consumption
                // can unblock it, so flag it for the consumers' upstream
                // wakes (the node stays dirty).
                if OBS {
                    self.note_stall(chan);
                }
                self.space_waiting[node] = true;
                continue;
            }
            let (emitted, res) = match (action, lowered) {
                (Action::Fire { method }, Some(tn)) => {
                    self.node_mut(node).fire_threaded(&tn.methods[method].fire)
                }
                _ => self.node_mut(node).execute_with_cost(action),
            };
            if let Some(tn) = lowered {
                for &p in &tn.methods[mi].trigger_ports {
                    self.refresh_head(node, p);
                }
            }
            // Firing consumed inputs and may have changed private state;
            // the node must be re-planned before it can be skipped again.
            self.mark_dirty(node);
            // Consumption frees buffer space on the consumed channels;
            // return the credits for any delayed ones.
            if shared.any_delayed {
                self.return_credits(&shared.credit_chans[node][mi]);
            }
            // Data-dependent-cost kernels report their actual work; running
            // past the declared budget is a runtime resource exception
            // (§VII) recorded per node. Equal cycle counts reuse the
            // build-time quotient (identical operands ⇒ identical bits).
            let (declared, declared_run_s) = match action {
                Action::Fire { .. } => (
                    self.node(node).compiled[mi].cost_cycles,
                    shared.run_s[node][mi],
                ),
                Action::Forward { .. } => (1, shared.forward_run_s),
            };
            let cycles = res.actual_cycles.unwrap_or(declared);
            let run_s = if cycles == declared {
                declared_run_s
            } else {
                cycles as f64 / shared.machine.pe_clock_hz
            };
            if cycles > declared {
                self.budget_overruns[node] += 1;
                if OBS {
                    if let Some(m) = self.metrics.as_mut() {
                        m.budget_overrun(self.now);
                    }
                }
            }
            let write_words: u64 = emitted.iter().map(|(_, i)| i.words()).sum();
            let m = &shared.machine;
            // Memoized word-cost conversions: a hit replays the quotient
            // the expression produced for the same operands (bitwise
            // identical by IEEE-754 determinism), a miss runs the
            // expression live and refills the slot.
            let memo = &mut self.rw_memo[(shared.method_base[node] + mi as u32) as usize];
            let read_s = if memo.read_words == res.read_words {
                memo.read_s
            } else {
                let v = res.read_words as f64 * m.read_cost_per_word / m.pe_clock_hz;
                memo.read_words = res.read_words;
                memo.read_s = v;
                v
            };
            let write_s = if memo.write_words == write_words {
                memo.write_s
            } else {
                let v = write_words as f64 * m.write_cost_per_word / m.pe_clock_hz;
                memo.write_words = write_words;
                memo.write_s = v;
                v
            };
            let dt = run_s + read_s + write_s;
            self.pe_inflight[pe] = Some(Inflight {
                node,
                emitted,
                run_s,
                read_s,
                write_s,
            });
            self.rr[pe] = idx;
            self.space_waiting[node] = false;
            if TRC {
                self.pe_stall[pe] = None;
                if self.trace.is_some() {
                    let t = self.now;
                    // The firing consumed one item from each trigger port;
                    // capture the new depths of those channels before
                    // taking the recorder borrow.
                    let depths: Vec<(u32, u32)> = {
                        let n = self.node(node);
                        n.compiled[mi]
                            .triggers
                            .iter()
                            .map(|&(port, _)| (port as u32, n.queues[port].len() as u32))
                            .collect()
                    };
                    if let Some(trace) = self.trace.as_mut() {
                        trace.record(TraceEvent::FiringBegin {
                            t,
                            node: node as u32,
                            method: mi as u32,
                            pe: pe as u32,
                            cycles,
                        });
                        for (port, depth) in depths {
                            trace.record(TraceEvent::QueueDepth {
                                t,
                                node: node as u32,
                                port,
                                depth,
                            });
                        }
                    }
                }
            }
            let t_done = self.now + dt;
            if OBS {
                self.note_push();
            }
            self.events.push(t_done, EventKind::PeDone { pe });
            return Some(node);
        }
        None
    }
}

/// Walk the wait-for graph of a capacity-deadlocked program and return the
/// cycle of filled channels as structured hops.
///
/// A blocked node (fireable plan, all PEs idle) is waiting on the channel
/// of the first of its method's space checks that fails — the check the
/// event loop declined it with; following those edges from each blocked
/// node in index order either revisits a node — the wait-for cycle (in a
/// feedback loop, the channel chain that filled) — or dead-ends. Pure
/// reads only, and both engines call this on the same merged node state
/// (including the merged sender-side credits for delayed channels), so
/// the resulting hops — channel names, occupancies, and capacities
/// included — are identical between the sequential and parallel
/// simulators.
fn deadlock_wait_cycle(
    shared: &Shared,
    nodes: &[RtNode],
    credits: &[i64],
) -> Option<Vec<DeadlockHop>> {
    let n = nodes.len();
    let blocked: Vec<bool> = (0..n)
        .map(|i| shared.node_roles[i] != NodeRole::Source && nodes[i].plan().is_some())
        .collect();
    let wait_chan = |i: usize| -> Option<usize> {
        let method = match nodes[i].plan()? {
            Action::Fire { method } | Action::Forward { method, .. } => method,
        };
        shared.space[i][method].iter().find_map(|c| {
            let (chan, full) = match *c {
                SpaceCheck::Credit { chan } => (chan, credits[chan as usize] < 2),
                SpaceCheck::Queue { dn, dp, cap, chan } => (
                    chan,
                    nodes[dn as usize].queues[dp as usize].len() + 2 > cap as usize,
                ),
            };
            full.then_some(chan as usize)
        })
    };
    for start in (0..n).filter(|&i| blocked[i]) {
        // The channels followed from `start`, and each node's position.
        let mut path: Vec<usize> = Vec::new();
        let mut pos = vec![usize::MAX; n];
        let mut cur = start;
        while blocked[cur] && pos[cur] == usize::MAX {
            let Some(ci) = wait_chan(cur) else {
                break;
            };
            pos[cur] = path.len();
            path.push(ci);
            cur = shared.channels[ci].dst;
        }
        if blocked[cur] && pos[cur] != usize::MAX {
            return Some(
                path[pos[cur]..]
                    .iter()
                    .map(|&ci| channel_hop(shared, nodes, credits, ci))
                    .collect(),
            );
        }
    }
    None
}

/// One hop for a channel in the settled program, with its resolved
/// capacity and occupancy (sender-side credit accounting for delayed
/// channels, direct queue inspection otherwise).
fn channel_hop(shared: &Shared, nodes: &[RtNode], credits: &[i64], ci: usize) -> DeadlockHop {
    let c = &shared.channels[ci];
    let capacity = c.cap;
    let delayed = shared.any_delayed && c.latency_s > 0.0;
    let occupancy = if delayed {
        (capacity as i64 - credits[ci]).max(0) as usize
    } else {
        nodes[c.dst].queues[c.dst_port].len()
    };
    DeadlockHop {
        src: nodes[c.src].name.clone(),
        src_port: nodes[c.src].spec.outputs[c.src_port].name.clone(),
        dst: nodes[c.dst].name.clone(),
        dst_port: nodes[c.dst].spec.inputs[c.dst_port].name.clone(),
        occupancy,
        capacity,
    }
}

/// When the blocked producers form a chain rather than a wait-for cycle
/// (the chain's head is stuck behind a consumer legitimately waiting for
/// external input — the parked-population deadlock of an under-sized
/// feedback back edge), find the *structural* channel cycle through a
/// blocked node: the loop whose circulating population no longer fits.
/// Deterministic — blocked nodes are scanned in index order and the DFS
/// explores channels in slot order — so both engines derive identical
/// hops from the same merged state.
fn starved_loop_cycle(
    shared: &Shared,
    nodes: &[RtNode],
    credits: &[i64],
) -> Option<Vec<DeadlockHop>> {
    let n = nodes.len();
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in shared.channels.iter().enumerate() {
        out[c.src].push(ci);
    }
    let blocked =
        (0..n).filter(|&i| shared.node_roles[i] != NodeRole::Source && nodes[i].plan().is_some());
    for start in blocked {
        // Iterative DFS for the first channel path start -> ... -> start.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)]; // (node, next edge)
        let mut path: Vec<usize> = Vec::new(); // channel per stack frame after the first
        let mut on_path = vec![false; n];
        on_path[start] = true;
        while let Some(&(v, ei)) = stack.last() {
            if let Some(&ci) = out[v].get(ei) {
                stack.last_mut().expect("frame present").1 += 1;
                let dst = shared.channels[ci].dst;
                if dst == start {
                    path.push(ci);
                    return Some(
                        path.iter()
                            .map(|&ci| channel_hop(shared, nodes, credits, ci))
                            .collect(),
                    );
                }
                if !on_path[dst] {
                    on_path[dst] = true;
                    path.push(ci);
                    stack.push((dst, 0));
                }
            } else {
                stack.pop();
                on_path[v] = false;
                if !stack.is_empty() {
                    path.pop();
                }
            }
        }
    }
    None
}

/// Per-sink frame accounting: frame `f` completes when every sink has
/// seen its `f`-th end-of-frame, at the latest of those arrivals. Returns
/// the completion time of every completed frame, and the latency of every
/// frame at least one sink finished: the latest `f`-th EOF among the sinks
/// that have one, minus the frame's start. Each sink's list is in time
/// order whichever shard wrote it, so the result does not depend on how
/// events interleaved across shards.
fn frame_times(shared: &Shared, sink_eofs: &[Vec<f64>], starts: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let sinks: Vec<&Vec<f64>> = sink_eofs
        .iter()
        .zip(&shared.node_roles)
        .filter(|(_, role)| **role == NodeRole::Sink)
        .map(|(eofs, _)| eofs)
        .collect();
    let completed = sinks.iter().map(|e| e.len()).min().unwrap_or(0);
    let seen = sinks.iter().map(|e| e.len()).max().unwrap_or(0);
    let last_eof = |f: usize| {
        sinks
            .iter()
            .filter_map(|e| e.get(f))
            .fold(0.0f64, |a, &b| a.max(b))
    };
    let completions = (0..completed).map(last_eof).collect();
    let latencies = (0..seen)
        .zip(starts)
        .map(|(f, s)| last_eof(f) - s)
        .collect();
    (completions, latencies)
}

/// Settle a finished run — one shard's outcome, or the parallel engine's
/// merge of all of them — into its [`SimOutcome`] and, when a metrics
/// policy was set, its [`MetricsTape`].
pub(crate) fn settle(
    shared: &Shared,
    nodes: &[RtNode],
    outcome: ShardOutcome,
) -> (SimOutcome, Option<MetricsTape>) {
    let (completions, latencies) =
        frame_times(shared, &outcome.sink_eofs, &outcome.frame_start_times);
    let tape = outcome.metrics.map(|mut rec| {
        let m = shared
            .metrics
            .as_ref()
            .expect("a recorder exists only when a metrics policy was resolved");
        // The tape rates completed frames only.
        let done = completions.len().min(latencies.len());
        let mut tape = MetricsTape::assemble(
            &mut rec,
            &m.contracts,
            &completions,
            &latencies[..done],
            outcome.now,
        );
        tape.sync = outcome.sync;
        tape
    });
    let settled = assemble_outcome(
        shared,
        nodes,
        outcome.stats,
        outcome.node_busy,
        outcome.now,
        outcome.violations,
        &completions,
        latencies,
        &outcome.custom_token_emissions,
        outcome.budget_overruns,
        outcome.node_max_queue,
        &outcome.credits,
    );
    (settled, tape)
}

/// Check the settled program for a capacity deadlock and build the final
/// outcome — a completed [`SimReport`] or a structured [`DeadlockReport`].
#[allow(clippy::too_many_arguments)]
fn assemble_outcome(
    shared: &Shared,
    nodes: &[RtNode],
    stats: Vec<PeStats>,
    node_busy: Vec<f64>,
    now: f64,
    violations: u64,
    completions: &[f64],
    frame_latencies: Vec<f64>,
    custom_token_emissions: &[u64],
    budget_overruns: Vec<u64>,
    node_max_queue: Vec<usize>,
    credits: &[i64],
) -> SimOutcome {
    // Everything settled. If any node still has a fireable plan, the
    // only thing that can have stopped it is downstream capacity — with
    // all PEs idle that is a genuine capacity deadlock. Residual items
    // with no fireable plan are legitimate (e.g. the final frame
    // circulating in a feedback loop) and are reported, not fatal.
    let deadlocked = (0..nodes.len())
        .any(|i| shared.node_roles[i] != NodeRole::Source && nodes[i].plan().is_some());
    if deadlocked {
        let queued: usize = nodes.iter().map(|n| n.queued_items()).sum();
        let (cycle, blocked_cycle) = match deadlock_wait_cycle(shared, nodes, credits) {
            Some(hops) => (hops, true),
            None => (
                starved_loop_cycle(shared, nodes, credits).unwrap_or_default(),
                false,
            ),
        };
        // The full hop whose producer the smallest single-channel capacity
        // increase would unblock: minimize `occupancy + 2 - capacity` over
        // hops that are actually blocking (ties break to the earliest hop
        // in walk order, deterministic on both engines).
        let min_capacity_bump = cycle
            .iter()
            .filter(|h| h.occupancy + 2 > h.capacity)
            .min_by_key(|h| h.occupancy + 2 - h.capacity)
            .map(|h| CapacityBump {
                channel: format!("{}.{} -> {}.{}", h.src, h.src_port, h.dst, h.dst_port),
                current: h.capacity,
                required: h.occupancy + 2,
            });
        return SimOutcome::Deadlocked(DeadlockReport {
            queued_items: queued,
            cycle,
            blocked_cycle,
            min_capacity_bump,
            stuck: stuck_report(nodes),
        });
    }
    let residual: u64 = nodes.iter().map(|n| n.queued_items() as u64).sum();

    let frames_completed = completions.len() as u32;
    let achieved = if completions.len() >= 2 && *completions.last().unwrap() > completions[0] {
        (completions.len() - 1) as f64 / (completions.last().unwrap() - completions[0])
    } else if now > 0.0 {
        frames_completed as f64 / now
    } else {
        0.0
    };
    let met = violations == 0 && frames_completed >= shared.frames;
    // §II-C: verify every kernel stayed within its declared custom-token
    // rate bounds over the simulated interval.
    let mut token_rate_violations = Vec::new();
    if now > 0.0 {
        for (i, rt) in nodes.iter().enumerate() {
            let emitted = custom_token_emissions[i];
            if emitted == 0 {
                continue;
            }
            let declared: f64 = rt.spec.custom_tokens.iter().map(|t| t.max_rate_hz).sum();
            let observed = emitted as f64 / now;
            // Allow one token of slack for startup transients.
            if observed > declared + 1.0 / now {
                token_rate_violations.push((rt.name.clone(), observed, declared));
            }
        }
    }
    SimOutcome::Completed(SimReport {
        pe_stats: stats,
        node_firings: nodes.iter().map(|n| n.firings).collect(),
        node_busy,
        sim_time: now,
        frames_completed,
        residual_items: residual,
        budget_overruns,
        node_max_queue,
        frame_latencies,
        token_rate_violations,
        verdict: RealTimeVerdict {
            met,
            violations,
            required_rate_hz: shared.required_rate_hz,
            achieved_rate_hz: achieved,
        },
    })
}

/// Every artifact of one run, from either engine: how it settled, the
/// trace (when [`SimConfig::trace`] was set), the metrics tape (when
/// [`SimConfig::metrics`] was set), and how the run was scheduled.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Completed with a [`SimReport`], or capacity-deadlocked with a
    /// structured [`DeadlockReport`].
    pub outcome: SimOutcome,
    /// The recorded trace, up to the point of settlement.
    pub trace: Option<Trace>,
    /// The assembled metrics tape.
    pub tape: Option<MetricsTape>,
    /// Shards, windows and sync activity (the one-shard values for a
    /// sequential run).
    pub stats: ParallelRunStats,
}

/// The timing-accurate simulator: one engine owning every PE. Construct
/// with a graph, a kernel-to-PE mapping, and a configuration, then either
/// [`run`](Self::run) it to completion or advance it a bounded number of
/// events at a time with [`step`](Self::step) and collect the result with
/// [`run_artifacts`](Self::run_artifacts).
///
/// Stepping is chunk-invariant by construction: every `step` pops and
/// handles exactly the events a one-shot run would have handled next, in
/// the same `(t, ord)` order, with the same per-event code. The simulator
/// owns its entire state, so interleaving other simulations between two
/// steps — or moving it to another thread — cannot perturb it, and the
/// report fingerprint, trace, and metrics tape equal a one-shot run's
/// whatever the step sizes (DESIGN.md §16).
pub struct TimedSimulator {
    sim: ShardSim,
    started: bool,
}

/// The earlier name of the resumable entry point: the same type as
/// [`TimedSimulator`].
pub type SteppableSim = TimedSimulator;

// The simulator owns its state outright, so a fleet host may move a
// stepped simulation between worker threads. Checked at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TimedSimulator>();
};

impl TimedSimulator {
    /// Instantiate the graph under the given mapping. No event is
    /// processed until the first [`step`](Self::step) or run.
    pub fn new(graph: &AppGraph, mapping: &Mapping, config: SimConfig) -> Result<Self> {
        let (nodes, shared) = build_shared(graph, mapping, config)?;
        Ok(Self::from_parts(nodes, shared))
    }

    /// Wrap an already-instantiated program (the parallel simulator's
    /// single-shard fallback) in one shard owning every PE.
    pub(crate) fn from_parts(nodes: Vec<RtNode>, shared: Shared) -> Self {
        let shard_of_pe = vec![0; shared.residents.len()];
        let nodes = Arc::new(DisjointSlots::new(nodes));
        Self {
            sim: ShardSim::new(Arc::new(shared), nodes, 0, shard_of_pe, None),
            started: false,
        }
    }

    /// Advance the simulation by at most `max_events` events and return
    /// how many were processed. The first call additionally fires the
    /// startup constants and seeds the sources (outside the budget, as in
    /// a one-shot run they precede the first pop). A short count means the
    /// simulation settled: the queue drained before the budget did.
    pub fn step(&mut self, max_events: usize) -> usize {
        if !self.started {
            self.started = true;
            self.sim.init();
        }
        self.sim.run_budget(max_events)
    }

    /// True when the simulation has settled: it was started and no pending
    /// event remains. Further [`step`](Self::step) calls process nothing.
    pub fn is_done(&mut self) -> bool {
        self.started && self.sim.next_pending().is_infinite()
    }

    /// Current virtual time (timestamp of the last processed event).
    pub fn now(&self) -> f64 {
        self.sim.now()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Process every remaining event (all of them, for a simulation never
    /// stepped) and settle the run into its [`RunArtifacts`].
    pub fn run_artifacts(mut self) -> RunArtifacts {
        self.step(usize::MAX);
        let shared = Arc::clone(&self.sim.shared);
        let slots = Arc::clone(&self.sim.nodes);
        let mut outcome = self.sim.into_outcome();
        let nodes = Arc::into_inner(slots)
            .expect("the engine released its node slots")
            .into_inner();
        // The single shard records in global pop order, so its buffer is
        // already the canonical trace.
        let trace = outcome.trace.take().map(|rec| {
            let (events, dropped) = rec.into_events();
            Trace {
                meta: TraceMeta::from_parts(
                    &nodes,
                    &shared.pe_of_node,
                    shared.residents.len(),
                    shared.machine.pe_clock_hz,
                    &shared.channels,
                ),
                events,
                dropped,
            }
        });
        let (outcome, tape) = settle(&shared, &nodes, outcome);
        RunArtifacts {
            outcome,
            trace,
            tape,
            stats: ParallelRunStats::sequential(),
        }
    }

    /// Run the simulation to completion and report. A capacity deadlock
    /// becomes a simulation error carrying the rendered
    /// [`DeadlockReport`]; [`run_artifacts`](Self::run_artifacts) keeps
    /// the structured diagnosis instead.
    pub fn run(self) -> Result<SimReport> {
        self.run_artifacts().outcome.into_report()
    }

    /// [`run`](Self::run), plus the recorded [`Trace`] when
    /// [`SimConfig::trace`] was set. Tracing is inert: the report is
    /// bit-identical to an untraced run's.
    pub fn run_with_trace(self) -> Result<(SimReport, Option<Trace>)> {
        let a = self.run_artifacts();
        Ok((a.outcome.into_report()?, a.trace))
    }

    /// [`run`](Self::run), plus the assembled [`MetricsTape`] when
    /// [`SimConfig::with_metrics`] was set. Metrics, like tracing, are
    /// inert.
    pub fn run_with_metrics(self) -> Result<(SimReport, Option<MetricsTape>)> {
        let a = self.run_artifacts();
        Ok((a.outcome.into_report()?, a.tape))
    }

    /// [`run_with_metrics`](Self::run_with_metrics) under its earlier
    /// name for ending a stepped run.
    pub fn finish_report(self) -> Result<(SimReport, Option<MetricsTape>)> {
        self.run_with_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Dim2, GraphBuilder};

    fn chain_graph(kernel: bp_core::KernelDef) -> AppGraph {
        let dim = Dim2::new(20, 12);
        let mut b = GraphBuilder::new();
        let src = b.add_source("Input", bp_kernels::pattern_source(dim), dim, 50.0);
        let k = b.add("K", kernel);
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        b.build().unwrap()
    }

    /// Stepping in any chunk size reproduces the one-shot run bit for bit:
    /// the report fingerprint and every trace event.
    #[test]
    fn stepped_run_matches_one_shot() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping::one_to_one(g.node_count());
        let config = SimConfig::new(2).with_trace(TraceOptions::default());
        let (want, want_trace) = TimedSimulator::new(&g, &mapping, config.clone())
            .unwrap()
            .run_with_trace()
            .unwrap();
        let want_trace = want_trace.expect("traced");
        assert!(!want_trace.events.is_empty());
        for budget in [1usize, 3, 7, 1024] {
            let mut sim = TimedSimulator::new(&g, &mapping, config.clone()).unwrap();
            while !sim.is_done() {
                sim.step(budget);
            }
            let a = sim.run_artifacts();
            let report = a.outcome.into_report().unwrap();
            assert_eq!(report.fingerprint(), want.fingerprint(), "budget {budget}");
            let trace = a.trace.expect("a stepped run returns its trace");
            assert_eq!(trace.events, want_trace.events, "budget {budget}");
            assert_eq!(trace.dropped, want_trace.dropped, "budget {budget}");
        }
    }

    /// A stepped simulation stays valid when moved between steps, and
    /// `run_artifacts` finishes a partly stepped run.
    #[test]
    fn stepping_survives_moves() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping::one_to_one(g.node_count());
        let want = TimedSimulator::new(&g, &mapping, SimConfig::new(1))
            .unwrap()
            .run()
            .unwrap()
            .fingerprint();
        let mut sim = TimedSimulator::new(&g, &mapping, SimConfig::new(1)).unwrap();
        assert_eq!(sim.step(5), 5);
        let mut moved = Box::new(sim);
        moved.step(5);
        let back = std::thread::spawn(move || *moved).join().unwrap();
        assert_eq!(back.events_processed(), 10);
        let report = back.run_artifacts().outcome.into_report().unwrap();
        assert_eq!(report.fingerprint(), want);
    }

    #[test]
    fn zero_frames_is_a_validation_error() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let mapping = Mapping::one_to_one(g.node_count());
        let err = TimedSimulator::new(&g, &mapping, SimConfig::new(0))
            .err()
            .expect("a zero-frame run is rejected");
        assert!(matches!(err, BpError::Validation(_)), "{err}");
    }

    #[test]
    fn capacity_derives_floor_for_narrow_windows() {
        // Every input window in this graph is narrower than 64, so the
        // derived capacity is the 64-item floor (the historical default).
        let g = chain_graph(bp_kernels::median(5, 5));
        assert_eq!(derive_channel_capacity(&g), 64);
    }

    #[test]
    fn capacity_derives_from_widest_input_row() {
        // A 100-tap FIR consumes a 100-wide window row: capacity rounds up
        // to the next power of two.
        let dim = Dim2::new(200, 1);
        let mut b = GraphBuilder::new();
        let src = b.add_source("In", bp_kernels::pattern_source(dim), dim, 100.0);
        let fir = b.add("Fir", bp_kernels::fir(100));
        let taps = b.add(
            "Taps",
            bp_kernels::const_source("taps", bp_kernels::boxcar_taps(100)),
        );
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add("Out", sdef);
        b.connect(src, "out", fir, "in");
        b.connect(taps, "out", fir, "taps");
        b.connect(fir, "out", snk, "in");
        let g = b.build().unwrap();
        assert_eq!(derive_channel_capacity(&g), 128);
    }

    #[test]
    fn explicit_capacity_overrides_derivation() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        let cfg = SimConfig::new(1).with_channel_capacity(16);
        assert_eq!(cfg.channel_capacity, Some(16));
        // The uniform pin is what the simulator resolves, not the derived
        // plan.
        let mapping = Mapping::one_to_one(g.node_count());
        let (_, shared) = build_shared(&g, &mapping, cfg).unwrap();
        assert!(shared.channels.iter().all(|c| c.cap == 16));
        let (_, shared) = build_shared(&g, &mapping, SimConfig::new(1)).unwrap();
        assert!(shared.channels.iter().all(|c| c.cap == 64));
        // cap_into mirrors the per-channel resolution at the consumer side.
        for c in &shared.channels {
            assert_eq!(shared.cap_into[c.dst][c.dst_port], c.cap);
        }
    }

    #[test]
    fn explicit_plan_overrides_derivation_per_channel() {
        let g = chain_graph(bp_kernels::scale(2.0, 0.0));
        // Override one channel (the first) and keep the default elsewhere.
        let (first_cid, _) = g.channels().next().unwrap();
        let plan = bp_core::ChannelCapacities::uniform(64).with_override(first_cid, 96);
        let cfg = SimConfig::new(1).with_channel_capacities(plan);
        let mapping = Mapping::one_to_one(g.node_count());
        let (_, shared) = build_shared(&g, &mapping, cfg).unwrap();
        assert_eq!(shared.channels[0].cap, 96);
        assert!(shared.channels[1..].iter().all(|c| c.cap == 64));
    }
}
