//! The round's eight steps as plain functions over [`RoundContext`], and the
//! [`PHASES`] table the round driver walks.
//!
//! A step only reads artifacts produced by earlier steps and writes its own
//! (see the per-step docs), which is what lets the parallel ones hand work to
//! the [`ShardExecutor`](crate::engine::ShardExecutor) without changing
//! observable behaviour.

use cycledger_consensus::votes::VoteList;
use cycledger_consensus::witness::Witness;
use cycledger_ledger::transaction::Transaction;
use cycledger_ledger::StateBackend;
use cycledger_net::topology::NodeId;

use crate::engine::context::{RecoveryAttempt, RoundContext};
use crate::phases::block_generation::run_block_generation;
use crate::phases::configuration::run_committee_configuration;
use crate::phases::inter::run_inter_consensus;
use crate::phases::intra::{discard_unverified_certificates, run_intra_consensus, IntraOutcome};
use crate::phases::recovery::Accusation;
use crate::phases::reputation_update::run_reputation_update;
use crate::phases::selection::run_selection;
use crate::phases::semi_commitment::run_semi_commitment_exchange;
use crate::sortition::AssignmentParams;

/// One step of a round.
pub type PhaseFn = fn(&mut RoundContext<'_>);

/// The round in protocol order: every step's name (what a
/// [`RoundObserver`](crate::engine::RoundObserver) sees) and its function.
/// This table is the only place the names are written.
pub const PHASES: [(&str, PhaseFn); 8] = [
    ("committee-configuration", committee_configuration),
    ("semi-commitment-exchange", semi_commitment_exchange),
    ("intra-consensus", intra_consensus),
    ("intra-recovery", intra_recovery),
    ("inter-consensus", inter_consensus),
    ("reputation-update", reputation_update),
    ("selection", selection),
    ("block-generation", block_generation),
];

/// Name of the intra-consensus step (first attempt of every committee).
pub const INTRA_CONSENSUS: &str = PHASES[2].0;
/// Name of the intra-recovery step (impeachments and consensus retries).
pub const INTRA_RECOVERY: &str = PHASES[3].0;
/// Name of the inter-consensus step.
pub const INTER_CONSENSUS: &str = PHASES[4].0;

/// Committee configuration (§IV-A, Alg. 2). Outputs: configuration traffic
/// in `ctx.metrics`.
fn committee_configuration(ctx: &mut RoundContext<'_>) {
    run_committee_configuration(
        ctx.registry,
        ctx.assignment,
        ctx.config.latency.delta,
        ctx.config.verify_signatures,
        &mut ctx.metrics,
    );
}

/// Semi-commitment exchange (§IV-B, Alg. 4), plus recovery for any
/// commitment-mismatch witness. Outputs: `ctx.witnesses`, evictions.
fn semi_commitment_exchange(ctx: &mut RoundContext<'_>) {
    let semi = run_semi_commitment_exchange(
        ctx.registry,
        &ctx.committees,
        &ctx.referee,
        ctx.round,
        ctx.config.latency,
        ctx.config.verify_signatures,
        ctx.config.seed ^ ctx.round,
        &mut ctx.metrics,
    );
    ctx.witnesses += semi.witnesses.len();
    for witness in semi.witnesses {
        let k = match &witness {
            Witness::CommitmentMismatch(e) => e.committee,
            Witness::Equivocation(_) => continue,
        };
        ctx.attempt_recovery(k, Accusation::Signed(witness));
    }
}

/// Intra-committee consensus (§IV-C, Alg. 5) for every committee. Outputs:
/// `ctx.intra_outcomes` in committee order.
fn intra_consensus(ctx: &mut RoundContext<'_>) {
    let all: Vec<usize> = (0..ctx.committee_count()).collect();
    ctx.intra_outcomes = run_intra_batch(ctx, &all, 0);
}

/// Recovery (§V-D, Alg. 6) for leaders that failed intra consensus, then one
/// retry batch under the new leaders. Outputs: replaced outcomes for the
/// retried committees, evictions, witnesses.
///
/// Impeachments run sequentially in committee order (they mutate the global
/// reputation table and the referee's metrics); the retries are one
/// executor batch.
fn intra_recovery(ctx: &mut RoundContext<'_>) {
    let mut retries: Vec<usize> = Vec::new();
    for k in 0..ctx.committee_count() {
        let outcome = &ctx.intra_outcomes[k];
        let needs_recovery = outcome.leader_silent
            || !outcome.equivocation.is_empty()
            || (outcome.certificate.is_none() && !ctx.intra_per_shard[k].is_empty());
        if !needs_recovery {
            continue;
        }
        ctx.witnesses += outcome.equivocation.len();
        let accusation = match outcome.equivocation.first() {
            Some(evidence) => Accusation::Signed(Witness::Equivocation(evidence.clone())),
            None => Accusation::Timeout {
                leader: ctx.committees[k].leader,
                committee: k,
                observed_by_committee: true,
            },
        };
        if let RecoveryAttempt::Evicted(_) = ctx.attempt_recovery(k, accusation) {
            retries.push(k);
        }
    }
    if retries.is_empty() {
        return;
    }
    // Both attempts really happened this round: the retry's counters and
    // metrics add on top of the first attempt's.
    let retried = run_intra_batch(ctx, &retries, 0x1_0000);
    for (outcome, &k) in retried.into_iter().zip(&retries) {
        ctx.intra_outcomes[k] = outcome;
    }
}

/// Runs intra consensus for the committees in `ks` (ascending) as one
/// executor batch, with committee `k`'s network seeded by `salt + k`. The
/// referee then checks the batch's certificates when signature verification
/// is on. Metrics and network counters fold into the context; the outcomes
/// come back in `ks` order.
fn run_intra_batch(ctx: &mut RoundContext<'_>, ks: &[usize], salt: u64) -> Vec<IntraOutcome> {
    let committees = &ctx.committees;
    let utxo_sets: &[_] = ctx.utxo_sets;
    let intra_per_shard = &ctx.intra_per_shard;
    let registry = ctx.registry;
    let referee_members = &ctx.assignment.referee;
    let round = ctx.round;
    let config = ctx.config;
    let faults = ctx.faults;

    let tasks: Vec<_> = ks
        .iter()
        .map(|&k| {
            move || {
                let seed = config.seed ^ (round << 8) ^ (salt + k as u64);
                run_intra_consensus(
                    registry,
                    &committees[k],
                    &utxo_sets[k],
                    &intra_per_shard[k],
                    referee_members,
                    round,
                    config.latency,
                    config.verify_signatures,
                    seed,
                    faults,
                )
            }
        })
        .collect();
    // Each task returns its own metrics sink; merging them in `ks`
    // (= committee) order keeps the round-level sink identical for any
    // worker count.
    let mut outcomes = Vec::with_capacity(ks.len());
    for (outcome, sink) in ctx.executor.execute(tasks) {
        ctx.metrics.merge(&sink);
        outcomes.push(outcome);
    }
    debug_assert!(outcomes.iter().zip(ks).all(|(o, &k)| o.committee == k));
    if ctx.config.verify_signatures {
        discard_unverified_certificates(&mut outcomes, &ctx.committees);
    }
    for outcome in &outcomes {
        ctx.net += outcome.net;
    }
    outcomes
}

/// Inter-committee consensus over cross-shard transactions (§IV-D), plus
/// impeachment of censoring leaders. Outputs: `ctx.inter`,
/// `ctx.censorship_count`, further evictions.
fn inter_consensus(ctx: &mut RoundContext<'_>) {
    let mut inter = run_inter_consensus(
        ctx.registry,
        &ctx.committees,
        ctx.utxo_sets,
        &ctx.cross_shard,
        ctx.round,
        ctx.config.latency,
        ctx.config.verify_signatures,
        ctx.config.seed ^ (ctx.round << 16),
        ctx.executor,
        &mut ctx.metrics,
        ctx.faults,
    );
    ctx.net += inter.net;
    ctx.witnesses += inter.equivocation.len();
    ctx.censorship_count = inter.censorship_reports.len();
    // The reports are only needed for the impeachments below; nothing
    // downstream reads them out of `ctx.inter` again.
    let reports = std::mem::take(&mut inter.censorship_reports);
    ctx.inter = Some(inter);
    for report in &reports {
        // The committee observed the timeout; impeach the censoring leader —
        // unless an earlier step already replaced it.
        let k = report.committee;
        if ctx.evicted.iter().any(|(ek, _)| *ek == k) {
            continue;
        }
        ctx.attempt_recovery_by(k, Accusation::from_censorship(report), report.reporter);
    }
}

/// Reputation updating from the intra votes (§IV-E). Outputs: the mutated
/// reputation table.
fn reputation_update(ctx: &mut RoundContext<'_>) {
    let inputs: Vec<(usize, &VoteList, &[i8], bool)> = ctx
        .intra_outcomes
        .iter()
        .map(|o| {
            (
                o.committee,
                &o.vote_list,
                o.decision.as_slice(),
                o.certificate.is_some(),
            )
        })
        .collect();
    run_reputation_update(
        ctx.registry,
        &ctx.committees,
        &ctx.assignment.referee,
        &inputs,
        ctx.reputation,
        ctx.config.leader_bonus,
        ctx.round,
        ctx.config.latency,
        ctx.config.verify_signatures,
        ctx.config.seed ^ (ctx.round << 24),
        &mut ctx.metrics,
    );
}

/// Beacon, PoW participation and next-round selection (§IV-F, Alg. 1).
/// Outputs: `ctx.selection`.
fn selection(ctx: &mut RoundContext<'_>) {
    ctx.selection = Some(run_selection(
        ctx.registry,
        &ctx.assignment.referee,
        AssignmentParams {
            committees: ctx.config.committees,
            partial_set_size: ctx.config.partial_set_size,
            referee_size: ctx.config.referee_size,
        },
        ctx.reputation,
        ctx.round,
        ctx.assignment.randomness,
        ctx.config.pow_difficulty,
        &mut ctx.metrics,
    ));
}

/// Block generation, propagation and per-shard application (§IV-G).
/// Outputs: `ctx.block_outcome`, `ctx.cross_packed_ids`, `ctx.state_roots`,
/// and the block applied to every shard's UTXO set — one executor task per
/// shard, since the sets are disjoint.
fn block_generation(ctx: &mut RoundContext<'_>) {
    // Stage candidates in the arena's reusable buffer, taking ownership of
    // the decided/accepted transactions instead of cloning them (no later
    // step reads them).
    let mut candidates: Vec<Transaction> = std::mem::take(&mut ctx.arena.candidates);
    for outcome in &mut ctx.intra_outcomes {
        candidates.append(&mut outcome.decided);
    }
    if let Some(inter) = &mut ctx.inter {
        for txs in &mut inter.accepted {
            for tx in txs.drain(..) {
                ctx.cross_packed_ids.insert(tx.id());
                candidates.push(tx);
            }
        }
    }
    let all_nodes: Vec<NodeId> = ctx.registry.ids();
    let block_outcome = run_block_generation(
        ctx.registry,
        &ctx.referee,
        &all_nodes,
        ctx.selection
            .as_ref()
            .and_then(|s| s.next_assignment.as_ref()),
        &mut candidates,
        ctx.utxo_sets,
        &mut ctx.arena.overlay,
        ctx.reputation,
        ctx.prev_hash,
        ctx.block_height,
        ctx.config.latency,
        ctx.config.verify_signatures,
        ctx.config.seed ^ (ctx.round << 32),
        &mut ctx.metrics,
    );
    // Return the (drained) buffer to the arena for the next round.
    ctx.arena.candidates = candidates;

    if let Some(block) = &block_outcome.block {
        let tasks: Vec<_> = ctx
            .utxo_sets
            .iter_mut()
            .map(|set| {
                move || {
                    for tx in &block.transactions {
                        set.apply(tx);
                    }
                }
            })
            .collect();
        let _: Vec<()> = ctx.executor.execute(tasks);
    }
    // Seal each shard's round delta into a versioned state root, one task
    // per shard. Rounds seal even without a block (the root re-publishes),
    // so every round report carries exactly one root per shard.
    if ctx.config.state_backend == StateBackend::Smt {
        let round = ctx.round;
        let tasks: Vec<_> = ctx
            .utxo_sets
            .iter_mut()
            .map(|set| move || set.commit_round(round).expect("smt backend returns a root"))
            .collect();
        ctx.state_roots = ctx.executor.execute(tasks);
    }
    ctx.block_outcome = Some(block_outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_and_order_are_pinned() {
        // Observers outside this crate (the benchmark's per-phase spans and
        // metric names) key on these exact names in this order.
        assert_eq!(
            PHASES.map(|(name, _)| name),
            [
                "committee-configuration",
                "semi-commitment-exchange",
                "intra-consensus",
                "intra-recovery",
                "inter-consensus",
                "reputation-update",
                "selection",
                "block-generation",
            ]
        );
    }
}
