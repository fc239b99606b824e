//! Refinement: concrete executions against the abstract transition relation.
//!
//! [`check_trace`] consumes an [`ExecutionTrace`] recorded by
//! `cycledger_protocol::TraceRecorder` from a real round-driver
//! execution — including the partition- and churn-fuzz schedules — and
//! verifies that **every concrete step has an abstract counterpart**: each
//! per-committee outcome, recovery attempt, and phase-counter delta must be
//! reproducible by the shared decision core
//! ([`cycledger_consensus::transition`]) from the raw facts the recorder
//! captured. A step the shared functions cannot reproduce means a consensus
//! phase computed a decision some way other than the one the model checker
//! exhaustively verified — exactly the drift this layer exists to catch.

use cycledger_consensus::transition::{
    expected_votes_missing, impeachment_passes, majority_threshold, quorum_timed_out, tx_accepted,
};
use cycledger_protocol::engine::{INTRA_CONSENSUS, INTRA_RECOVERY};
use cycledger_protocol::{
    CommitteeStep, ExecutionTrace, NetCounters, RecoveryOutcome, RecoveryStep,
};

use std::collections::HashMap;

/// Aggregate evidence of a successful refinement pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefinementStats {
    /// Per-committee consensus steps checked.
    pub committee_steps: usize,
    /// Individual per-transaction decisions replayed through the tally rule.
    pub decisions: usize,
    /// Recovery attempts checked.
    pub recovery_steps: usize,
    /// Phase-counter deltas reconciled.
    pub phase_deltas: usize,
}

/// A concrete step with no abstract counterpart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefinementError {
    /// Which rule the step broke.
    pub rule: &'static str,
    /// Where in the trace (round / phase / committee where applicable).
    pub location: String,
    /// What the concrete execution recorded vs. what the model requires.
    pub detail: String,
}

impl std::fmt::Display for RefinementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.location, self.detail)
    }
}

impl std::error::Error for RefinementError {}

fn err(rule: &'static str, location: String, detail: String) -> RefinementError {
    RefinementError {
        rule,
        location,
        detail,
    }
}

fn check_committee_step(
    step: &CommitteeStep,
    stats: &mut RefinementStats,
) -> Result<(), RefinementError> {
    let loc = format!(
        "round {} / {} / committee {}",
        step.round, step.phase, step.committee
    );
    let size = step.committee_size;
    let missing = step.net.votes_missing;

    if step.leader_silent {
        // A silent leader produces the all-rejected outcome without a vote
        // collection: no rows, no missing count, no certificate, and a
        // uniformly negative decision vector.
        if step.voter_rows != 0 || missing != 0 || step.net.syncing_votes != 0 {
            return Err(err(
                "silent-leader-empty",
                loc,
                format!(
                    "silent leader with voter_rows={} votes_missing={} syncing_votes={}",
                    step.voter_rows, missing, step.net.syncing_votes
                ),
            ));
        }
        if step.certificate_signers.is_some() {
            return Err(err(
                "silent-leader-cert",
                loc,
                "certificate produced without an announced TXList".to_string(),
            ));
        }
        if step.decision.iter().any(|&d| d != -1) {
            return Err(err(
                "silent-leader-decision",
                loc,
                "non-rejected decision without an announced TXList".to_string(),
            ));
        }
        stats.committee_steps += 1;
        return Ok(());
    }

    // Vote accounting: missing = C − rows-before-backfill, and after the
    // all-`Unknown` backfill the V List holds exactly C rows. The recorded
    // missing count and the quorum-timeout flag must agree with the shared
    // arithmetic.
    if step.voter_rows != size {
        return Err(err(
            "backfill-incomplete",
            loc,
            format!("{} vote rows in a committee of {}", step.voter_rows, size),
        ));
    }
    if missing != expected_votes_missing(size, size - missing) {
        // With rows == size this is arithmetic identity; keep the call so the
        // shared function is the single point of truth.
        return Err(err(
            "missing-count-skew",
            loc,
            format!("votes_missing={missing} of {size}"),
        ));
    }
    if missing > size {
        return Err(err(
            "missing-count-overflow",
            loc,
            format!("votes_missing={missing} of {size}"),
        ));
    }
    if step.net.quorum_timeouts != usize::from(quorum_timed_out(missing)) {
        return Err(err(
            "quorum-timeout-flag",
            loc,
            format!(
                "quorum_timeouts={} with votes_missing={missing}",
                step.net.quorum_timeouts
            ),
        ));
    }
    // Syncing members abstain; a syncing vote ever being counted would mean
    // the membership gate leaked.
    if step.net.syncing_votes != 0 {
        return Err(err(
            "syncing-vote-counted",
            loc,
            format!("{} votes from syncing members", step.net.syncing_votes),
        ));
    }

    // Decision refinement: production's per-transaction decision must be
    // exactly the shared strict-majority rule over the recounted raw rows,
    // and no tally can exceed the votes actually present (missing members'
    // backfilled rows are all-`Unknown`, so they count toward neither side).
    if step.yes_counts.len() != step.decision.len() || step.no_counts.len() != step.decision.len() {
        return Err(err(
            "tally-shape",
            loc,
            format!(
                "{} decisions vs {} yes / {} no tallies",
                step.decision.len(),
                step.yes_counts.len(),
                step.no_counts.len()
            ),
        ));
    }
    let present = size - missing;
    for (k, &decision) in step.decision.iter().enumerate() {
        let yes = step.yes_counts[k];
        let no = step.no_counts[k];
        if yes + no > present {
            return Err(err(
                "manufactured-votes",
                loc,
                format!("tx {k}: {yes} yes + {no} no from {present} present voters"),
            ));
        }
        let expected: i8 = if tx_accepted(yes, size) { 1 } else { -1 };
        if decision != expected {
            return Err(err(
                "decision-divergence",
                loc,
                format!(
                    "tx {k}: decision {decision} but {yes} yes votes of {size} requires {expected}"
                ),
            ));
        }
        stats.decisions += 1;
    }

    // A quorum certificate always carries a committee majority of distinct
    // signers.
    if let Some(signers) = step.certificate_signers {
        if signers < majority_threshold(size) {
            return Err(err(
                "cert-below-quorum",
                loc,
                format!(
                    "certificate with {signers} signers, quorum is {}",
                    majority_threshold(size)
                ),
            ));
        }
    }

    // Equivocation evidence must actually conflict (two different digests) —
    // the witness verification re-checks signatures, the refinement re-checks
    // the structural half through the shared predicate.
    if step.equivocation_count > 0 && !step.equivocations_conflict {
        return Err(err(
            "non-conflicting-evidence",
            loc,
            "equivocation evidence pairing identical digests".to_string(),
        ));
    }

    stats.committee_steps += 1;
    Ok(())
}

fn check_recovery_step(
    step: &RecoveryStep,
    stats: &mut RefinementStats,
) -> Result<(), RefinementError> {
    let loc = format!(
        "round {} / {} / committee {}",
        step.round, step.phase, step.record.committee
    );
    let record = &step.record;
    match record.outcome {
        RecoveryOutcome::Evicted => {
            // An eviction needs an impeachment majority — the abstract rule.
            if !impeachment_passes(record.approvals, record.committee_size) {
                return Err(err(
                    "eviction-below-majority",
                    loc,
                    format!(
                        "evicted with {} approvals in a committee of {}",
                        record.approvals, record.committee_size
                    ),
                ));
            }
        }
        RecoveryOutcome::Rejected => {}
        RecoveryOutcome::Skipped => {
            // Skipped means no prosecutor was available, by definition.
            if record.prosecutor.is_some() {
                return Err(err(
                    "skip-with-prosecutor",
                    loc,
                    "recovery skipped although a prosecutor existed".to_string(),
                ));
            }
        }
    }
    stats.recovery_steps += 1;
    Ok(())
}

/// Checks a recorded execution against the abstract transition relation.
///
/// Returns aggregate counts on success; the first concrete step with no
/// abstract counterpart aborts the pass with a located, self-describing
/// error.
pub fn check_trace(trace: &ExecutionTrace) -> Result<RefinementStats, RefinementError> {
    let mut stats = RefinementStats::default();

    for step in &trace.steps {
        check_committee_step(step, &mut stats)?;
    }
    for step in &trace.recoveries {
        check_recovery_step(step, &mut stats)?;
    }

    // Phase-delta reconciliation: the round counters folded into
    // `RoundReport` must equal the sum over the per-committee steps of the
    // same phase — the counters cannot drift from the outcomes they
    // summarize. Keyed by (round, phase) since a trace may span many rounds.
    let mut step_sums: HashMap<(u64, &'static str), NetCounters> = HashMap::new();
    for step in &trace.steps {
        *step_sums.entry((step.round, step.phase)).or_default() += step.net;
    }
    for delta in &trace.phase_deltas {
        let loc = format!("round {} / {}", delta.round, delta.phase);
        if delta.net.syncing_votes != 0 {
            return Err(err(
                "syncing-vote-counted",
                loc,
                format!(
                    "{} syncing votes folded into the round",
                    delta.net.syncing_votes
                ),
            ));
        }
        if let INTRA_CONSENSUS | INTRA_RECOVERY = delta.phase {
            let sum = step_sums
                .get(&(delta.round, delta.phase))
                .copied()
                .unwrap_or_default();
            if delta.net.quorum_timeouts != sum.quorum_timeouts
                || delta.net.votes_missing != sum.votes_missing
            {
                return Err(err(
                    "counter-reconciliation",
                    loc,
                    format!(
                        "phase folded {} timeouts / {} missing but its committee steps sum to {} / {}",
                        delta.net.quorum_timeouts,
                        delta.net.votes_missing,
                        sum.quorum_timeouts,
                        sum.votes_missing
                    ),
                ));
            }
            // Every retried committee must have been re-snapshotted.
            for &k in &delta.retried {
                let seen = trace
                    .steps
                    .iter()
                    .any(|s| s.round == delta.round && s.phase == delta.phase && s.committee == k);
                if !seen {
                    return Err(err(
                        "retry-unrecorded",
                        loc,
                        format!("committee {k} retried without a recorded outcome"),
                    ));
                }
            }
        }
        stats.phase_deltas += 1;
    }

    Ok(stats)
}
