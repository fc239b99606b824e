//! Phase 4 — inter-committee consensus (§IV-D, Lemmas 6 & 7).
//!
//! Cross-shard transactions are grouped by their input shard. The input
//! committee first agrees on the list `TXList_{i,j}` with Algorithm 3, then its
//! leader forwards the certified list to the destination committee's leader and
//! partial set. The destination committee votes, agrees, and returns the result.
//!
//! Two leader attacks are modelled:
//! * a **censoring** input-committee leader withholds the certified list; after
//!   the `2Γ` timeout an honest partial-set member of the input committee
//!   forwards it instead (Lemma 6) and raises an impeachment,
//! * framing is impossible because the destination's partial set also waits `2Γ`
//!   before accusing its own leader (Lemma 7) — modelled by only ever reporting
//!   the input leader, and only when it really withheld.
//!
//! Each `(i, j)` pair runs its whole flow on one faulted discrete-event
//! network. List forwards and replies travel the key-member mesh under a
//! [`list_deadline`] (`4Γ`, sized so the Lemma 6 takeover at `2Γ` still makes
//! it); a forward that misses the deadline defers the pair's transactions to a
//! later round. The destination committee's votes use the same `4Δ`
//! collection loop as the intra phase.

use cycledger_consensus::envelope::CommitteeMessage;
use cycledger_consensus::messages::ConsensusId;
use cycledger_consensus::votes::VoteList;
use cycledger_consensus::witness::EquivocationEvidence;
use cycledger_ledger::transaction::Transaction;
use cycledger_ledger::utxo::UtxoSet;
use cycledger_ledger::workload::GeneratedTx;
use cycledger_net::faults::FaultPlan;
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::metrics::{MetricsSink, Phase};
use cycledger_net::network::{NetEvent, SimNetwork};
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;

use crate::adversary::Behavior;
use crate::committee::{run_inside_consensus, Committee, LeaderFault};
use crate::engine::ShardExecutor;
use crate::node::NodeRegistry;
use crate::phases::intra::collect_votes_under_deadline;
use crate::report::NetCounters;

/// Timer key: the destination committee's list-forward deadline.
const LIST_TIMER: u64 = 2;

/// The destination committee's deadline for a forwarded cross-shard list:
/// `4Γ`. Honest forwards arrive within `Γ`; the Lemma 6 takeover (an honest
/// partial-set member forwarding after the `2Γ` censorship timeout) arrives
/// within `3Γ`, so only genuine network faults miss this deadline.
pub fn list_deadline(latency: &LatencyConfig) -> SimDuration {
    latency.gamma.times(4)
}

/// A leader liveness complaint raised by a partial-set member after the `2Γ`
/// timeout (censored cross-shard traffic). Unlike signed witnesses, this is an
/// omission fault: eviction goes through the committee impeachment vote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CensorshipReport {
    /// Committee whose leader withheld traffic.
    pub committee: usize,
    /// The accused leader.
    pub leader: NodeId,
    /// The honest partial-set member that took over forwarding.
    pub reporter: NodeId,
    /// Number of transactions that were withheld.
    pub withheld: usize,
}

/// Outcome of the inter-committee consensus phase.
#[derive(Clone, Debug, Default)]
pub struct InterOutcome {
    /// Cross-shard transactions accepted by both sides, per input committee.
    pub accepted: Vec<Vec<Transaction>>,
    /// Members' votes on cross-shard lists, per destination committee (merged
    /// into reputation scoring together with the intra-phase votes).
    pub vote_lists: Vec<VoteList>,
    /// Censorship reports raised by partial-set members.
    pub censorship_reports: Vec<CensorshipReport>,
    /// Equivocation evidence surfaced while agreeing on cross-shard lists.
    pub equivocation: Vec<EquivocationEvidence>,
    /// Extra latency incurred by `2Γ` timeouts (microseconds of simulated time).
    pub timeout_delays: u64,
    /// Network counters summed over every pair: destination vote deadlines
    /// that fired, pairs abandoned because the certified list missed the
    /// destination's deadline, missing and syncing votes, dropped envelopes.
    pub net: NetCounters,
}

/// What one `(input shard, output shard)` pair produced, folded into the
/// phase outcome in pair order.
struct PairResult {
    input_shard: usize,
    accepted: Vec<Transaction>,
    vote_list: Option<VoteList>,
    censorship: Option<CensorshipReport>,
    equivocation: Vec<EquivocationEvidence>,
    timeout_delays: u64,
    net: NetCounters,
    metrics: MetricsSink,
}

/// Runs inter-committee consensus over the cross-shard portion of the
/// workload, with the whole pair flow — source agreement, list forward,
/// destination votes and agreement, result reply — on one faulted network
/// per `(i, j)` pair, so a partition or delay on any leg perturbs the
/// outcome.
///
/// The pairs are independent — each runs its own seeded network and touches
/// only read-shared state — so they execute as one batch on the persistent
/// [`ShardExecutor`]. Results fold back in pair (submission) order with
/// per-pair metric sinks, keeping the output byte-identical for any worker
/// count.
#[allow(clippy::too_many_arguments)]
pub fn run_inter_consensus(
    registry: &NodeRegistry,
    committees: &[Committee],
    utxo_sets: &[UtxoSet],
    cross_shard: &[GeneratedTx],
    round: u64,
    latency: LatencyConfig,
    verify_signatures: bool,
    seed: u64,
    executor: &ShardExecutor,
    metrics: &mut MetricsSink,
    plan: &FaultPlan,
) -> InterOutcome {
    let m = committees.len();
    let mut outcome = InterOutcome {
        accepted: vec![Vec::new(); m],
        vote_lists: Vec::new(),
        ..Default::default()
    };

    // Group cross-shard transactions by (input shard, output shard).
    let mut by_pair: std::collections::BTreeMap<(usize, usize), Vec<&GeneratedTx>> =
        std::collections::BTreeMap::new();
    for gen in cross_shard {
        let inputs = gen.tx.input_shards(m);
        let outputs = gen.tx.output_shards(m);
        let i = inputs.first().copied().unwrap_or(0);
        let j = outputs
            .iter()
            .copied()
            .find(|&s| s != i)
            .unwrap_or_else(|| outputs.first().copied().unwrap_or(0));
        by_pair.entry((i, j)).or_default().push(gen);
    }

    let tasks: Vec<_> = by_pair
        .into_iter()
        .map(|((i, j), txs)| {
            move || {
                run_inter_pair(
                    registry,
                    committees,
                    utxo_sets,
                    i,
                    j,
                    &txs,
                    round,
                    latency,
                    verify_signatures,
                    seed,
                    plan,
                )
            }
        })
        .collect();
    for pair in executor.execute(tasks) {
        metrics.merge(&pair.metrics);
        outcome.accepted[pair.input_shard].extend(pair.accepted);
        outcome.vote_lists.extend(pair.vote_list);
        outcome.censorship_reports.extend(pair.censorship);
        outcome.equivocation.extend(pair.equivocation);
        outcome.timeout_delays += pair.timeout_delays;
        outcome.net += pair.net;
    }

    outcome
}

/// One `(i, j)` pair on its own faulted network. Pure function of its inputs
/// plus the derived seed.
#[allow(clippy::too_many_arguments)]
fn run_inter_pair(
    registry: &NodeRegistry,
    committees: &[Committee],
    utxo_sets: &[UtxoSet],
    i: usize,
    j: usize,
    txs: &[&GeneratedTx],
    round: u64,
    latency: LatencyConfig,
    verify_signatures: bool,
    seed: u64,
    plan: &FaultPlan,
) -> PairResult {
    let phase = Phase::InterCommitteeConsensus;
    let mut result = PairResult {
        input_shard: i,
        accepted: Vec::new(),
        vote_list: None,
        censorship: None,
        equivocation: Vec::new(),
        timeout_delays: 0,
        net: NetCounters::default(),
        metrics: MetricsSink::new(),
    };
    let source = &committees[i];
    let dest = &committees[j];
    let source_leader_behavior = registry.node(source.leader).behavior;
    let mut net: SimNetwork<CommitteeMessage> =
        SimNetwork::with_faults(latency, seed ^ ((i as u64) << 32 | j as u64), plan.clone());
    net.set_phase(phase);

    // Close the pair's books: drain to quiescence, collect drops, fold the
    // network's metrics into the pair sink.
    macro_rules! finish {
        ($net:ident, $result:ident) => {{
            while $net.next_event().is_some() {}
            $result.net.dropped = $net.dropped_messages();
            $result.metrics.merge($net.metrics());
            return $result;
        }};
    }

    // 1. The input committee agrees on TXList_{i,j} (Algorithm 3 over the
    //    faulted network).
    let mut payload = Vec::with_capacity(txs.len() * 32);
    for gen in txs {
        payload.extend_from_slice(gen.tx.id().as_bytes());
    }
    let mut source_consensus = run_inside_consensus(
        &mut net,
        source,
        registry,
        ConsensusId {
            round,
            seq: 2_000 + (i as u64) * 64 + j as u64,
        },
        payload,
        LeaderFault::from_behavior(source_leader_behavior, b"cross"),
        verify_signatures,
    );
    result
        .equivocation
        .append(&mut source_consensus.equivocation);
    if source_consensus.certificate.is_none() {
        // The input committee could not certify the list; these transactions
        // wait for recovery and a later round.
        finish!(net, result);
    }

    // 2. The certified list travels the key-member mesh to the destination
    //    leader and partial set. A censoring source leader withholds it; an
    //    honest partial-set member notices after 2Γ, forwards it itself
    //    (Lemma 6) and reports the leader.
    let list_bytes: u64 = txs.iter().map(|g| g.tx.wire_size()).sum::<u64>()
        + source_consensus
            .certificate
            .as_ref()
            .map(|c| c.wire_size())
            .unwrap_or(0);
    let censoring = source_leader_behavior == Behavior::CensoringLeader;
    let forwarder: NodeId = if censoring {
        let honest_pm = source
            .partial_set
            .iter()
            .copied()
            .find(|&pm| registry.node(pm).is_honest());
        let Some(reporter) = honest_pm else {
            // Every key member colludes in the concealment (the w.h.p.
            // honest-partial-member argument failed at this scale): nobody
            // forwards, nobody reports, and the destination's deadline
            // defers the transactions to a later round.
            result.net.list_timeouts = 1;
            finish!(net, result);
        };
        result.censorship = Some(CensorshipReport {
            committee: i,
            leader: source.leader,
            reporter,
            withheld: txs.len(),
        });
        result.timeout_delays += 2 * latency.gamma.as_micros();
        reporter
    } else {
        source.leader
    };
    let takeover_delay = if censoring {
        latency.gamma.times(2)
    } else {
        SimDuration::ZERO
    };
    let forward = CommitteeMessage::ListForward {
        input: i as u32,
        output: j as u32,
        count: txs.len() as u32,
    };
    net.send_after(
        forwarder,
        dest.leader,
        LinkClass::KeyMemberMesh,
        forward.clone(),
        list_bytes,
        takeover_delay,
    );
    for &pm in &dest.partial_set {
        net.send_after(
            forwarder,
            pm,
            LinkClass::KeyMemberMesh,
            forward.clone(),
            list_bytes,
            takeover_delay,
        );
    }

    // 3. The destination leader waits for the list under the 4Γ deadline.
    net.schedule_timer(list_deadline(&latency), LIST_TIMER);
    let mut list_arrived = false;
    while let Some(event) = net.next_event() {
        match event {
            NetEvent::Message(env) => {
                if matches!(env.payload, CommitteeMessage::ListForward { .. })
                    && env.to == dest.leader
                {
                    list_arrived = true;
                    break;
                }
            }
            NetEvent::Timer {
                key: LIST_TIMER, ..
            } => break,
            NetEvent::Timer { .. } => {}
        }
    }
    if !list_arrived {
        // The forward leg was severed or delayed past the deadline: the
        // pair's transactions defer to a later round.
        result.net.list_timeouts = 1;
        finish!(net, result);
    }

    // 4. The destination committee votes on the list — the leader announces
    //    it to the members, replies ride back under the 4Δ deadline, and
    //    missing votes become all-Unknown rows (the same shared collection
    //    loop as the intra driver, minus the intra storage accounting).
    let tx_ids: Vec<_> = txs.iter().map(|g| g.tx.id()).collect();
    let validity: Vec<bool> = txs
        .iter()
        .map(|g| utxo_sets[i].validate(&g.tx).is_ok())
        .collect();
    let mut vote_list = VoteList::new(tx_ids);
    result.net = collect_votes_under_deadline(
        &mut net,
        registry,
        dest,
        &validity,
        list_bytes,
        &latency,
        false,
        &mut vote_list,
    );

    // 5. The destination committee agrees on the vote result and returns it.
    let tally = vote_list.tally(dest.size());
    let mut dest_payload = Vec::with_capacity(tally.accepted_indices.len() * 32);
    for &k in &tally.accepted_indices {
        dest_payload.extend_from_slice(txs[k].tx.id().as_bytes());
    }
    let mut dest_consensus = run_inside_consensus(
        &mut net,
        dest,
        registry,
        ConsensusId {
            round,
            seq: 3_000 + (j as u64) * 64 + i as u64,
        },
        dest_payload,
        LeaderFault::from_behavior(registry.node(dest.leader).behavior, b"cross-reply"),
        verify_signatures,
    );
    result.equivocation.append(&mut dest_consensus.equivocation);

    if dest_consensus.certificate.is_some() {
        let reply_bytes = dest_consensus
            .certificate
            .as_ref()
            .map(|c| c.wire_size())
            .unwrap_or(0)
            + tally.accepted_indices.len() as u64 * 32;
        net.send(
            dest.leader,
            source.leader,
            LinkClass::KeyMemberMesh,
            CommitteeMessage::ListReply {
                input: i as u32,
                output: j as u32,
                accepted: tally.accepted_indices.len() as u32,
            },
            reply_bytes,
        );
        for &k in &tally.accepted_indices {
            result.accepted.push(txs[k].tx.clone());
        }
    }
    result.vote_list = Some(vote_list);
    finish!(net, result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryConfig;
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_crypto::sha256::sha256;
    use cycledger_ledger::workload::{TxKind, Workload, WorkloadConfig};
    use cycledger_reputation::ReputationTable;

    struct Fixture {
        registry: NodeRegistry,
        committees: Vec<Committee>,
        utxo_sets: Vec<UtxoSet>,
        cross: Vec<GeneratedTx>,
    }

    fn fixture(seed: u64) -> Fixture {
        let registry = NodeRegistry::generate(70, &AdversaryConfig::default(), 200, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: 3,
                partial_set_size: 3,
                referee_size: 7,
            },
            1,
            sha256(b"inter-phase"),
            &reputation,
        );
        let committees: Vec<Committee> = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, &registry))
            .collect();
        let mut workload = Workload::new(WorkloadConfig {
            num_shards: 3,
            accounts_per_shard: 16,
            genesis_amount: 1_000,
            cross_shard_ratio: 1.0,
            invalid_ratio: 0.0,
            seed,
        });
        let utxo_sets = workload.build_genesis_utxo_sets();
        let cross: Vec<GeneratedTx> = workload
            .generate_batch(60)
            .into_iter()
            .filter(|g| g.kind == TxKind::CrossShard)
            .collect();
        Fixture {
            registry,
            committees,
            utxo_sets,
            cross,
        }
    }

    #[test]
    fn honest_cross_shard_transactions_are_accepted() {
        let fx = fixture(61);
        assert!(!fx.cross.is_empty());
        let mut metrics = MetricsSink::new();
        let outcome = run_inter_consensus(
            &fx.registry,
            &fx.committees,
            &fx.utxo_sets,
            &fx.cross,
            1,
            LatencyConfig::default(),
            true,
            1,
            &ShardExecutor::new(1),
            &mut metrics,
            &FaultPlan::default(),
        );
        let accepted: usize = outcome.accepted.iter().map(|v| v.len()).sum();
        assert_eq!(
            accepted,
            fx.cross.len(),
            "every valid cross-shard tx accepted"
        );
        assert!(outcome.censorship_reports.is_empty());
        assert!(outcome.equivocation.is_empty());
        assert_eq!(outcome.timeout_delays, 0);
        assert!(
            metrics
                .phase_total(Phase::InterCommitteeConsensus)
                .msgs_sent
                > 0
        );
    }

    #[test]
    fn censoring_leader_is_reported_and_transactions_still_flow() {
        let mut fx = fixture(62);
        // Make every committee leader a censoring leader for its outgoing lists.
        let leaders: Vec<NodeId> = fx.committees.iter().map(|c| c.leader).collect();
        for l in &leaders {
            fx.registry.set_behavior(*l, Behavior::CensoringLeader);
        }
        let mut metrics = MetricsSink::new();
        let outcome = run_inter_consensus(
            &fx.registry,
            &fx.committees,
            &fx.utxo_sets,
            &fx.cross,
            1,
            LatencyConfig::default(),
            true,
            2,
            &ShardExecutor::new(1),
            &mut metrics,
            &FaultPlan::default(),
        );
        assert!(!outcome.censorship_reports.is_empty());
        for report in &outcome.censorship_reports {
            assert!(leaders.contains(&report.leader));
            assert!(fx.registry.node(report.reporter).is_honest());
            assert!(report.withheld > 0);
        }
        // Lemma 6: the partial set forwards the lists, so transactions still land.
        let accepted: usize = outcome.accepted.iter().map(|v| v.len()).sum();
        assert_eq!(accepted, fx.cross.len());
        // The 2Γ timeout shows up as extra latency.
        assert!(outcome.timeout_delays > 0);
    }

    #[test]
    fn silent_source_leader_stalls_only_its_own_lists() {
        let mut fx = fixture(63);
        let silent = fx.committees[0].leader;
        fx.registry.set_behavior(silent, Behavior::SilentLeader);
        let mut metrics = MetricsSink::new();
        let outcome = run_inter_consensus(
            &fx.registry,
            &fx.committees,
            &fx.utxo_sets,
            &fx.cross,
            1,
            LatencyConfig::default(),
            true,
            3,
            &ShardExecutor::new(1),
            &mut metrics,
            &FaultPlan::default(),
        );
        // Lists whose input shard is committee 0 cannot be certified this round.
        assert!(outcome.accepted[0].is_empty());
        // Other committees' cross-shard lists still go through.
        let others: usize = outcome.accepted[1..].iter().map(|v| v.len()).sum();
        assert!(others > 0);
    }
}
