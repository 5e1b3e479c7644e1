//! Optimistic (Time Warp) synchronization state for the parallel engine
//! (DESIGN.md §17).
//!
//! Under [`bp_core::SyncMode::Optimistic`] each shard worker executes past
//! its conservative lookahead bound, checkpointing its complete mutable
//! state every [`OptState::interval`] speculated events. A cross-shard
//! message arriving in the shard's virtual past (a *straggler*) rolls the
//! shard back to the latest checkpoint strictly dominated by the message's
//! `(t, ord)` key; sends invalidated by the rollback are cancelled with
//! *anti-messages* carrying the same key as the positive they name. A GVT
//! sweep (the coordinator's conservative horizon, which lower-bounds every
//! present and future message key) fossil-collects checkpoints that can no
//! longer be rollback targets.
//!
//! The data structures live here; the state capture/restore/rollback logic
//! is implemented on `ShardSim` in [`crate::timed`], which owns the fields
//! being snapshotted. Everything is engineered so the *committed* execution
//! — metrics tapes, reports, fingerprints, per-shard event counts — is
//! bitwise identical to the sequential oracle:
//!
//! - Checkpoints capture the full mutable surface (event queue, wires,
//!   credits, sequence counters, node queues and kernel state, stats,
//!   per-sink EOF lists, the metrics recorder, the event counter), so a
//!   restored shard re-executes exactly as it did the first time. Traced
//!   runs never get here: they execute on the sequential engine.
//! - During *coast-forward* (re-execution of events that survived the
//!   rollback, i.e. keys below the straggler), cross-shard sends that were
//!   already delivered are suppressed — every local effect (metrics,
//!   credit spend, event count) re-records identically because that state
//!   was restored with the checkpoint.
//! - Rollback/anti/checkpoint counters live in [`OptState`], *outside* the
//!   checkpointed surface, so they survive rollbacks and surface the
//!   schedule's optimism without perturbing any digested artifact.

use crate::runtime::RtNode;
use crate::timed::EventKind;
use bp_core::item::Item;
use bp_core::rng::Rng64;
use bp_metrics::SyncCounters;
use std::any::Any;
use std::collections::VecDeque;

/// Total event ordering key: `(timestamp bits, ordinal)`. Simulation times
/// are non-negative, so `f64::to_bits` orders like the float; the ordinal
/// is the band-0 insertion counter or the band-1 creation ordinal, exactly
/// the tie-break the event queues use. Lexicographic comparison therefore
/// reproduces global pop order.
pub(crate) type Key = (u64, u64);

/// Key ordering below every real event: timestamps are `>= 0` and band-1
/// message ordinals carry the high bit, so `(0, 0)` strictly precedes any
/// cross-shard message key.
pub(crate) const KEY_MIN: Key = (0, 0);

#[inline]
pub(crate) fn key(t: f64, ord: u64) -> Key {
    (t.to_bits(), ord)
}

/// Deterministic straggler fault injection: seeded per-`(shard, round)`
/// virtual-time stalls in the optimistic worker loop. A stalled shard
/// skips its speculation phase for the round (it still drains its inbox,
/// runs its conservative window, and publishes its horizon — so GVT stays
/// monotone), which leaves its frontier trailing the speculators; its
/// later sends then arrive as stragglers — forcing rollbacks at a rate
/// the seed controls while provably leaving every committed result
/// untouched (stalls perturb *scheduling* only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StragglerPolicy {
    /// Base seed; every `(shard, round)` decision hashes it independently.
    pub seed: u64,
    /// Stall probability numerator (a shard stalls when
    /// `hash % denominator < numerator`).
    pub num: u32,
    /// Stall probability denominator.
    pub den: u32,
}

impl StragglerPolicy {
    /// Stall each shard-round with probability 1/2 under `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            num: 1,
            den: 2,
        }
    }

    /// Stall each shard-round with probability `num/den`.
    pub fn with_rate(seed: u64, num: u32, den: u32) -> Self {
        assert!(den > 0 && num < den, "stall rate must be in [0, 1)");
        Self { seed, num, den }
    }

    /// Whether `shard` sits out `round`. Every fourth round is always
    /// live, bounding how long a shard can be starved.
    pub(crate) fn stalled(&self, shard: usize, round: u64) -> bool {
        if round % 4 == 3 {
            return false;
        }
        let mut rng = Rng64::seed_from_u64(
            self.seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ round,
        );
        (rng.next_u64() % self.den as u64) < self.num as u64
    }
}

/// One cross-shard message this shard *received*, in arrival (drain)
/// order. Rollback replay re-inserts the entries past the restored
/// checkpoint's `in_len`; an anti-message appends a [`InKind::Cancel`]
/// record so the replay re-applies the removal in the same drain order.
/// That ordering is what keeps *every* checkpoint consistent: a snapshot
/// captured before the anti arrived still holds the positive, and the
/// replayed cancel strips it back out — while a re-sent positive with the
/// same key (the source coasting past its own rollback) appears *after*
/// the cancel in the log, so exactly one copy survives.
pub(crate) struct InRec {
    pub(crate) t: f64,
    pub(crate) ord: u64,
    pub(crate) chan: u32,
    pub(crate) kind: InKind,
}

pub(crate) enum InKind {
    /// An item bound for this shard's wire (the payload is re-pushed onto
    /// the wire when the entry is replayed after a rollback).
    Arrival(Item),
    /// A buffer credit coming home.
    Credit,
    /// An anti-message that landed here: replay removes the named
    /// positive from the event queue (and its item from the wire when
    /// `was_arrival`), mirroring what the live cancel did.
    Cancel { was_arrival: bool },
}

impl InRec {
    /// The per-channel wire sequence number, recoverable from the band-1
    /// ordinal's low 32 bits.
    pub(crate) fn seq(&self) -> u32 {
        (self.ord & 0xffff_ffff) as u32
    }
}

/// One cross-shard message this shard *sent*, in send order (monotone in
/// `src_key`, the key of the event that caused it). Rollback truncates the
/// suffix with `src_key >= straggler` and emits one anti-message per
/// truncated entry; the surviving suffix past the restored checkpoint's
/// `out_len` is the coast-forward suppression list.
pub(crate) struct OutRec {
    /// Key of the local event whose handler performed the send.
    pub(crate) src_key: Key,
    pub(crate) t: f64,
    pub(crate) ord: u64,
    pub(crate) chan: u32,
    /// Destination shard.
    pub(crate) dst: u32,
    /// True for a credit return, false for an item arrival.
    pub(crate) credit: bool,
}

/// Private kernel state of one owned node at checkpoint time.
pub(crate) struct NodeSnap {
    pub(crate) node: usize,
    pub(crate) queues: Vec<VecDeque<Item>>,
    pub(crate) firings: u64,
    /// `None` for stateless kernels (nothing to restore).
    pub(crate) behavior: Option<Box<dyn Any + Send>>,
}

impl NodeSnap {
    /// Capture `node`'s mutable state, recycling this slot's allocations.
    pub(crate) fn capture(&mut self, node: usize, rt: &RtNode) {
        self.node = node;
        if self.queues.len() == rt.queues.len() {
            for (dst, src) in self.queues.iter_mut().zip(rt.queues.iter()) {
                dst.clone_from(src);
            }
        } else {
            self.queues.clone_from(&rt.queues);
        }
        self.firings = rt.firings;
        self.behavior = rt.behavior.snapshot_state();
    }

    /// Write the captured state back into `rt`.
    pub(crate) fn restore(&self, rt: &mut RtNode) {
        for (dst, src) in rt.queues.iter_mut().zip(self.queues.iter()) {
            dst.clone_from(src);
        }
        rt.firings = self.firings;
        if let Some(snap) = self.behavior.as_deref() {
            rt.behavior.restore_state(snap);
        }
    }

    pub(crate) fn empty() -> Self {
        Self {
            node: usize::MAX,
            queues: Vec::new(),
            firings: 0,
            behavior: None,
        }
    }
}

/// A complete snapshot of one shard's mutable simulation state, taken
/// between events. The engine-side fields (`events`, `wire`, recorders,
/// …) are captured by `ShardSim::opt_capture` in [`crate::timed`], which
/// owns them; the struct itself is a plain bag of recycled buffers.
/// `Default` yields an empty shell the first capture fills.
#[derive(Default)]
pub(crate) struct Checkpoint {
    /// Key of the last event processed before the capture ([`KEY_MIN`]
    /// for the post-init checkpoint). A checkpoint is a valid rollback
    /// target for straggler key `k` iff `last_key < k`.
    pub(crate) last_key: Key,
    /// [`OptState::in_log`] length at capture (replay re-inserts entries
    /// at and past this index).
    pub(crate) in_len: usize,
    /// [`OptState::out_log`] length at capture (the coast-forward cursor
    /// restarts here).
    pub(crate) out_len: usize,
    /// Debug-build state digest at capture; restore re-digests and
    /// asserts equality, proving rollback restored the checkpoint
    /// byte-for-byte (on the digested surface).
    pub(crate) digest: u64,
    // ---- engine state, captured/restored field-by-field by ShardSim ----
    pub(crate) now: f64,
    pub(crate) rr: Vec<usize>,
    pub(crate) pe_inflight: Vec<Option<crate::timed::Inflight>>,
    pub(crate) dirty: Vec<bool>,
    pub(crate) dirty_count: Vec<usize>,
    pub(crate) events: Option<crate::events::BucketQueue<EventKind>>,
    pub(crate) stats: Vec<crate::stats::PeStats>,
    pub(crate) node_busy: Vec<f64>,
    pub(crate) violations: u64,
    pub(crate) sink_eofs: Vec<Vec<f64>>,
    pub(crate) frame_start_times: Vec<f64>,
    pub(crate) custom_token_emissions: Vec<u64>,
    pub(crate) source_progress: Vec<u64>,
    pub(crate) budget_overruns: Vec<u64>,
    pub(crate) node_max_queue: Vec<usize>,
    pub(crate) credits: Vec<i64>,
    pub(crate) busy_until: Vec<f64>,
    pub(crate) wire: Vec<VecDeque<(u32, Item)>>,
    pub(crate) send_seq: Vec<u32>,
    pub(crate) credit_seq: Vec<u32>,
    pub(crate) processed: u64,
    pub(crate) metrics: Option<bp_metrics::MetricsRecorder>,
    pub(crate) pe_stall: Vec<Option<crate::trace::StallCause>>,
    pub(crate) head_data: Vec<u64>,
    pub(crate) head_ctrl: Vec<u64>,
    pub(crate) space_waiting: Vec<bool>,
    pub(crate) nodes: Vec<NodeSnap>,
}

/// Per-shard Time Warp state, held by `ShardSim` only when the run is
/// optimistic. Counters are deliberately *not* part of any checkpoint:
/// they count what actually happened, rollbacks included.
pub(crate) struct OptState {
    /// Live checkpoints, oldest first. Invariant: non-empty after
    /// `opt_enable`, and the front always dominates every key that can
    /// still arrive (the GVT sweep maintains this).
    pub(crate) ckpts: VecDeque<Checkpoint>,
    /// Recycled checkpoint shells (allocation-light discipline: rollback
    /// and fossil collection return shells here; capture reuses them).
    pub(crate) pool: Vec<Checkpoint>,
    /// Every cross-shard message received, in drain order.
    pub(crate) in_log: Vec<InRec>,
    /// Every cross-shard message sent, in send order.
    pub(crate) out_log: Vec<OutRec>,
    /// Coast-forward replay cursor into `out_log`.
    pub(crate) out_cursor: usize,
    /// While `Some(k)`: events with key `< k` are re-executions of
    /// already-committed work; their cross-shard sends are suppressed
    /// against `out_log[out_cursor..]`. Cleared when an event with key
    /// `>= k` pops.
    pub(crate) coast_end: Option<Key>,
    /// Key of the event currently being processed (send attribution).
    pub(crate) cur_key: Key,
    /// Key of the last processed event.
    pub(crate) last_key: Key,
    pub(crate) counters: SyncCounters,
}

impl OptState {
    pub(crate) fn new() -> Self {
        Self {
            ckpts: VecDeque::new(),
            pool: Vec::new(),
            in_log: Vec::new(),
            out_log: Vec::new(),
            out_cursor: 0,
            coast_end: None,
            cur_key: KEY_MIN,
            last_key: KEY_MIN,
            counters: SyncCounters::default(),
        }
    }

    /// True while coast-forwarding below the straggler that caused the
    /// last rollback (suppress re-sends of already-delivered messages).
    #[inline]
    pub(crate) fn coasting(&self) -> bool {
        match self.coast_end {
            Some(end) => self.cur_key < end,
            None => false,
        }
    }

    /// Drop checkpoints that can no longer be rollback targets: every
    /// future message key is `>= (gvt, 0)` (the coordinator's horizon is
    /// a global lower bound), so only the latest checkpoint with
    /// `last_key < (gvt, 0)` — and everything after it — must survive.
    pub(crate) fn fossil_collect(&mut self, gvt: f64) {
        if !gvt.is_finite() {
            return;
        }
        let bound: Key = (gvt.to_bits(), 0);
        while self.ckpts.len() >= 2 && self.ckpts[1].last_key < bound {
            let ck = self.ckpts.pop_front().expect("len checked");
            self.counters.fossils += 1;
            self.pool.push(ck);
        }
    }
}
