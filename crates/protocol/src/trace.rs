//! Execution-trace export for refinement checking.
//!
//! [`TraceRecorder`] is a [`RoundObserver`] that snapshots, at every phase
//! boundary, exactly the facts the `cycledger-checker` refinement layer needs
//! to replay a concrete execution through the shared decision core
//! ([`cycledger_consensus::transition`]): per-committee vote tallies and
//! decisions, certificate signer counts, quorum-timeout bookkeeping, the
//! recovery log, and the per-phase deltas of the round's network counters. The recorder only reads the [`RoundContext`] — attaching it
//! never changes protocol output (the [`RoundObserver`] contract).
//!
//! The point of the exercise: every concrete step recorded here must have an
//! abstract counterpart in the model checker's transition relation. The
//! checker's `refine` module consumes an [`ExecutionTrace`] and fails loudly
//! on any step the shared transition functions cannot reproduce — catching
//! drift between the consensus phases and the model at fuzz scale instead of
//! only at the n=4 exhaustive bound.

use cycledger_consensus::votes::{Vote, VoteList};

use crate::engine::{
    RoundContext, RoundObserver, INTER_CONSENSUS, INTRA_CONSENSUS, INTRA_RECOVERY,
};
use crate::report::{NetCounters, RecoveryOutcome, RecoveryRecord};

/// One committee's intra-consensus outcome, reduced to the decision-relevant
/// facts the refinement layer replays through the shared transition core.
#[derive(Clone, Debug)]
pub struct CommitteeStep {
    /// Round the step happened in.
    pub round: u64,
    /// Phase boundary the snapshot was taken at ([`INTRA_CONSENSUS`] for the
    /// main batch, [`INTRA_RECOVERY`] for post-recovery retries).
    pub phase: &'static str,
    /// Committee index.
    pub committee: usize,
    /// Committee size `C` at snapshot time.
    pub committee_size: usize,
    /// True when the leader never announced a `TXList`.
    pub leader_silent: bool,
    /// The committee's network counters: whether the vote-collection
    /// deadline fired, votes missing at it (backfilled as all-`Unknown`
    /// rows), syncing abstentions and votes.
    pub net: NetCounters,
    /// Vote rows in the leader's `V List` after backfill.
    pub voter_rows: usize,
    /// Per-transaction `Yes` counts, recounted from the raw vote rows.
    pub yes_counts: Vec<usize>,
    /// Per-transaction `No` counts, recounted from the raw vote rows.
    pub no_counts: Vec<usize>,
    /// The decision vector production committed to (+1 / −1 per tx).
    pub decision: Vec<i8>,
    /// Distinct signer count of the quorum certificate, if one was produced.
    pub certificate_signers: Option<usize>,
    /// Equivocation evidence extracted by honest members.
    pub equivocation_count: usize,
    /// True iff every piece of evidence pairs two *different* digests.
    pub equivocations_conflict: bool,
}

/// One recovery attempt, as the engine logged it.
#[derive(Clone, Debug)]
pub struct RecoveryStep {
    /// Round the attempt happened in.
    pub round: u64,
    /// Phase the attempt was made from.
    pub phase: &'static str,
    /// The logged record (committee, approvals, committee size, outcome).
    pub record: RecoveryRecord,
}

/// Per-phase deltas of the round's network counters, for reconciling
/// `RoundReport` totals against the per-committee steps.
#[derive(Clone, Debug)]
pub struct PhaseDelta {
    /// Round the phase ran in.
    pub round: u64,
    /// Phase name.
    pub phase: &'static str,
    /// Network counters the phase accumulated.
    pub net: NetCounters,
    /// Committees whose consensus was retried under a new leader during this
    /// phase (non-empty only for [`INTRA_RECOVERY`]).
    pub retried: Vec<usize>,
}

/// Everything one or more observed rounds exported for refinement.
#[derive(Clone, Debug, Default)]
pub struct ExecutionTrace {
    /// Per-committee consensus steps, in snapshot order.
    pub steps: Vec<CommitteeStep>,
    /// Recovery attempts, in attempt order.
    pub recoveries: Vec<RecoveryStep>,
    /// Per-phase counter deltas, in phase order.
    pub phase_deltas: Vec<PhaseDelta>,
}

/// Counter values captured at a phase start, for delta computation.
#[derive(Clone, Copy, Debug, Default)]
struct CounterMark {
    net: NetCounters,
    recovery_log_len: usize,
}

/// A [`RoundObserver`] that records an [`ExecutionTrace`] across every round
/// it observes. Attach with [`crate::Simulation::run_round_observed`] or
/// [`crate::Simulation::run_observed`], then hand
/// [`trace`](TraceRecorder::into_trace) to the checker's refinement pass.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    trace: ExecutionTrace,
    mark: CounterMark,
}

impl TraceRecorder {
    /// A fresh recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Consumes the recorder into its trace.
    pub fn into_trace(self) -> ExecutionTrace {
        self.trace
    }

    fn snapshot_committee(&mut self, ctx: &RoundContext<'_>, phase: &'static str, k: usize) {
        let outcome = &ctx.intra_outcomes[k];
        let size = ctx.committees[k].size();
        let (yes_counts, no_counts) = count_votes(&outcome.vote_list);
        self.trace.steps.push(CommitteeStep {
            round: ctx.round,
            phase,
            committee: k,
            committee_size: size,
            leader_silent: outcome.leader_silent,
            net: outcome.net,
            voter_rows: outcome.vote_list.voter_count(),
            yes_counts,
            no_counts,
            decision: outcome.decision.clone(),
            certificate_signers: outcome.certificate.as_ref().map(|c| c.signer_count()),
            equivocation_count: outcome.equivocation.len(),
            equivocations_conflict: outcome.equivocation.iter().all(|e| {
                cycledger_consensus::transition::digests_conflict(&e.digest_a, &e.digest_b)
            }),
        });
    }

    fn collect_recoveries(&mut self, ctx: &RoundContext<'_>, phase: &'static str) {
        for record in &ctx.recovery_log[self.mark.recovery_log_len..] {
            self.trace.recoveries.push(RecoveryStep {
                round: ctx.round,
                phase,
                record: record.clone(),
            });
        }
    }

    fn push_delta(&mut self, ctx: &RoundContext<'_>, phase: &'static str, retried: Vec<usize>) {
        self.trace.phase_deltas.push(PhaseDelta {
            round: ctx.round,
            phase,
            net: ctx.net - self.mark.net,
            retried,
        });
    }
}

impl RoundObserver for TraceRecorder {
    fn on_phase_start(&mut self, _phase: &'static str, ctx: &RoundContext<'_>) {
        self.mark = CounterMark {
            net: ctx.net,
            recovery_log_len: ctx.recovery_log.len(),
        };
    }

    fn on_phase_end(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
        match phase {
            INTRA_CONSENSUS => {
                for k in 0..ctx.committee_count() {
                    self.snapshot_committee(ctx, phase, k);
                }
                self.push_delta(ctx, phase, Vec::new());
            }
            INTRA_RECOVERY => {
                // Committees evicted during this phase had their consensus
                // retried under the new leader; their outcomes were replaced
                // in place, so re-snapshot exactly those.
                let retried: Vec<usize> = ctx.recovery_log[self.mark.recovery_log_len..]
                    .iter()
                    .filter(|r| r.outcome == RecoveryOutcome::Evicted)
                    .map(|r| r.committee)
                    .collect();
                for &k in &retried {
                    self.snapshot_committee(ctx, phase, k);
                }
                self.push_delta(ctx, phase, retried);
            }
            INTER_CONSENSUS => {
                self.push_delta(ctx, phase, Vec::new());
            }
            _ => {}
        }
        self.collect_recoveries(ctx, phase);
    }
}

/// Recounts `Yes` / `No` votes per transaction from the raw vote rows —
/// deliberately *not* via [`VoteList::tally`], so the refinement compares the
/// production tally against an independent mechanical count.
fn count_votes(list: &VoteList) -> (Vec<usize>, Vec<usize>) {
    let mut yes = vec![0usize; list.tx_ids.len()];
    let mut no = vec![0usize; list.tx_ids.len()];
    for row in &list.votes {
        for (k, vote) in row.votes.iter().enumerate() {
            match vote {
                Vote::Yes => yes[k] += 1,
                Vote::No => no[k] += 1,
                Vote::Unknown => {}
            }
        }
    }
    (yes, no)
}
