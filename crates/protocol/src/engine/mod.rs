//! # The round engine
//!
//! The round driver ([`crate::round::run_round_observed`]) walks the
//! [`PHASES`] table in order over one [`RoundContext`], reporting every step
//! boundary to a [`RoundObserver`]. Three pieces:
//!
//! * [`RoundContext`] (`context`) — owns all per-round shared state:
//!   committees, referee, metrics, network counters, workload split,
//!   eviction ledger, and the artifacts each step produces for its
//!   successors.
//! * [`PHASES`] (`steps`) — the eight steps of a round as plain functions
//!   over the context, in protocol order, each with the name observers see.
//! * [`ShardExecutor`] (`executor`) — runs a batch of borrowed tasks on
//!   scoped threads, at most `worker_threads` of them counting the caller.
//!   The intra-consensus fan-out, the post-recovery consensus retries, the
//!   inter-consensus pairs and the per-shard block application all run as
//!   executor batches.
//!
//! ## Determinism contract
//!
//! Identical seeds must yield byte-identical [`crate::SimulationSummary`]
//! output regardless of worker count. The engine guarantees this by
//! construction:
//!
//! * every executor task is a pure function of explicitly captured inputs
//!   with its own derived seed,
//! * results return in submission (= committee) order, never completion
//!   order, and
//! * every task returns its own metrics sink, and the step merges the sinks
//!   into the round's sink in submission order.
//!
//! The `determinism_*` tests in `simulation.rs` pin this down for 1, 2 and 8
//! workers.
//!
//! ## One data plane
//!
//! Every committee interaction — `TXList` announcements, votes, Algorithm 3,
//! cross-shard forwards, recovery accusations — travels as an envelope
//! through a seeded discrete-event network built with the round's
//! [`cycledger_net::faults::FaultPlan`] (see [`crate::phases::intra`]); an
//! empty plan is the healthy network. Steps run strictly in table order, and
//! a round's block application completes before the round closes.

pub mod arena;
pub mod context;
pub mod executor;
pub mod steps;

pub use arena::RoundArena;
pub use context::{RecoveryAttempt, RoundContext};
pub use executor::ShardExecutor;
pub use steps::{PhaseFn, INTER_CONSENSUS, INTRA_CONSENSUS, INTRA_RECOVERY, PHASES};

/// Observation points the engine exposes to external subsystems.
///
/// The scenario runner's invariant checkers implement this to watch a round
/// as it executes: the driver calls in at every step boundary with shared
/// access to the full [`RoundContext`], so an observer can inspect step
/// artifacts (eviction ledger, recovery log, witnesses, metrics) exactly as
/// each step produced them. Observers must not affect protocol output —
/// they only read — which keeps the determinism contract intact whether or
/// not one is attached.
pub trait RoundObserver {
    /// Called before a step executes.
    fn on_phase_start(&mut self, _phase: &'static str, _ctx: &RoundContext<'_>) {}

    /// Called after a step has executed and written its artifacts.
    fn on_phase_end(&mut self, _phase: &'static str, _ctx: &RoundContext<'_>) {}
}

/// The do-nothing observer used by unobserved runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl RoundObserver for NoopObserver {}
