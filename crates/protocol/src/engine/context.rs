//! [`RoundContext`]: the per-round shared state every phase reads and writes.

use cycledger_crypto::fxhash::FxHashSet;
use cycledger_crypto::sha256::Digest;
use cycledger_ledger::transaction::TxId;
use cycledger_ledger::utxo::UtxoSet;
use cycledger_ledger::workload::{GeneratedTx, TxKind};
use cycledger_net::metrics::MetricsSink;
use cycledger_net::topology::{NodeId, RoundTopology};
use cycledger_reputation::ReputationTable;

use crate::committee::Committee;
use crate::config::ProtocolConfig;
use crate::engine::arena::RoundArena;
use crate::engine::executor::ShardExecutor;
use crate::node::NodeRegistry;
use crate::phases::block_generation::BlockOutcome;
use crate::phases::inter::InterOutcome;
use crate::phases::intra::IntraOutcome;
use crate::phases::recovery::{run_recovery, Accusation};
use crate::phases::selection::SelectionOutcome;
use crate::report::{NetCounters, RecoveryOutcome, RecoveryRecord, RoleGroups, RoundReport};
use crate::round::{RoundInput, RoundOutput};
use crate::sortition::RoundAssignment;

/// What one recovery attempt did to the accused committee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAttempt {
    /// The leader was evicted and a partial-set member installed.
    Evicted(NodeId),
    /// The impeachment ran but did not evict (bad evidence, no majority, or
    /// an empty candidate pool at the referee step).
    Rejected,
    /// The recovery could not even start: the partial set has no member left
    /// to prosecute, so the committee skips recovery this round instead of
    /// panicking (the next sortition refills the partial set).
    Skipped,
}

/// Per-round shared state, owned by the round driver and threaded through
/// every step of [`crate::engine::PHASES`].
///
/// The context splits into three bands:
///
/// * **round inputs** — configuration, registry, assignment, executor: shared
///   immutable borrows;
/// * **simulation state** — UTXO sets and the reputation table: exclusive
///   borrows that persist across rounds;
/// * **round artifacts** — committees, metrics, phase outcomes: owned by the
///   context, produced by one phase and consumed by later ones, assembled
///   into the [`RoundReport`] at the end.
pub struct RoundContext<'a> {
    /// The protocol configuration.
    pub config: &'a ProtocolConfig,
    /// The node registry (PKI + ground truth).
    pub registry: &'a NodeRegistry,
    /// This round's assignment (from the previous block).
    pub assignment: &'a RoundAssignment,
    /// The persistent worker pool shared by all parallel phases.
    pub executor: &'a ShardExecutor,
    /// Network faults in force this round.
    pub faults: &'a cycledger_net::faults::FaultPlan,
    /// Reusable scratch buffers recycled across rounds (reset on context
    /// construction; drained and refilled by the phases).
    pub arena: &'a mut RoundArena,
    /// The round number.
    pub round: u64,
    /// Hash of the previous block.
    pub prev_hash: Digest,
    /// Height the produced block will sit at.
    pub block_height: u64,

    /// Mutable shard UTXO sets (simulation state).
    pub utxo_sets: &'a mut [UtxoSet],
    /// Mutable global reputation table (simulation state).
    pub reputation: &'a mut ReputationTable,

    /// Committees as executable objects (leaders may change during recovery).
    pub committees: Vec<Committee>,
    /// The referee committee.
    pub referee: Committee,
    /// Round-level metrics; parallel phases merge per-worker sinks into this
    /// in committee order.
    pub metrics: MetricsSink,
    /// Leaders evicted so far: `(committee, old leader)`.
    pub evicted: Vec<(usize, NodeId)>,
    /// Signed witnesses produced so far.
    pub witnesses: usize,
    /// Every recovery attempted so far, in attempt order (the invariant
    /// observation log surfaced through [`RoundReport::recovery_log`]; the
    /// report's skipped-recovery count is derived from it, so the log is the
    /// single source of truth).
    pub recovery_log: Vec<RecoveryRecord>,
    /// Network counters accumulated so far across every phase network this
    /// round (intra attempts and retries, inter pairs, recoveries).
    pub net: NetCounters,

    /// Per-shard intra-committee transaction lists (workload split).
    pub intra_per_shard: Vec<Vec<GeneratedTx>>,
    /// Cross-shard transactions (workload split).
    pub cross_shard: Vec<GeneratedTx>,
    /// Number of transactions offered this round.
    pub offered_total: usize,
    /// Of those, how many were valid (ground truth).
    pub offered_valid: usize,
    /// Of those, how many were cross-shard (ground truth).
    pub offered_cross: usize,

    /// Output of the intra-consensus phase, one entry per committee.
    pub intra_outcomes: Vec<IntraOutcome>,
    /// Output of the inter-consensus phase.
    pub inter: Option<InterOutcome>,
    /// Censorship reports observed during inter consensus.
    pub censorship_count: usize,
    /// Output of the selection phase.
    pub selection: Option<SelectionOutcome>,
    /// Output of the block-generation phase.
    pub block_outcome: Option<BlockOutcome>,
    /// Authenticated state roots committed by this round's block application,
    /// one per shard in shard order. Stays empty on the map backend.
    pub state_roots: Vec<Digest>,
    /// Ids of cross-shard transactions offered to the block builder (for the
    /// packed-cross-shard report column).
    pub cross_packed_ids: FxHashSet<TxId>,
}

impl<'a> RoundContext<'a> {
    /// Builds the context from the round input: instantiates committees and
    /// the referee, and splits the offered workload into per-shard intra
    /// lists and cross-shard transactions.
    pub fn new(input: RoundInput<'a>, executor: &'a ShardExecutor) -> Self {
        let RoundInput {
            config,
            registry,
            assignment,
            utxo_sets,
            reputation,
            offered,
            prev_hash,
            block_height,
            arena,
            faults,
        } = input;
        arena.begin_round();
        let round = assignment.round;
        let committee_count = assignment.committees.len();

        let committees: Vec<Committee> = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, registry))
            .collect();
        let referee = Committee {
            index: usize::MAX,
            leader: assignment.referee[0],
            partial_set: Vec::new(),
            members: assignment.referee.clone(),
            keys: registry.committee_keys(&assignment.referee),
        };

        let offered_total = offered.len();
        let offered_valid = offered.iter().filter(|g| g.kind.is_valid()).count();
        let offered_cross = offered
            .iter()
            .filter(|g| g.kind == TxKind::CrossShard)
            .count();
        let mut intra_per_shard: Vec<Vec<GeneratedTx>> = vec![Vec::new(); committee_count];
        let mut cross_shard: Vec<GeneratedTx> = Vec::new();
        for gen in offered {
            if gen.tx.is_intra_shard(committee_count) {
                let shard = gen
                    .tx
                    .touched_shards(committee_count)
                    .first()
                    .copied()
                    .unwrap_or(0);
                intra_per_shard[shard].push(gen);
            } else {
                cross_shard.push(gen);
            }
        }

        RoundContext {
            config,
            registry,
            assignment,
            executor,
            faults,
            arena,
            round,
            prev_hash,
            block_height,
            utxo_sets,
            reputation,
            committees,
            referee,
            metrics: MetricsSink::with_node_capacity(registry.len()),
            evicted: Vec::new(),
            witnesses: 0,
            recovery_log: Vec::new(),
            net: NetCounters::default(),
            intra_per_shard,
            cross_shard,
            offered_total,
            offered_valid,
            offered_cross,
            intra_outcomes: Vec::new(),
            inter: None,
            censorship_count: 0,
            selection: None,
            block_outcome: None,
            state_roots: Vec::new(),
            cross_packed_ids: FxHashSet::default(),
        }
    }

    /// Number of ordinary committees `m`.
    pub fn committee_count(&self) -> usize {
        self.committees.len()
    }

    /// Picks the prosecutor for committee `k`: the first honest partial-set
    /// member, falling back to the first partial-set member of any behaviour,
    /// or `None` when the partial set has been drained by earlier recoveries.
    ///
    /// The seed unconditionally indexed `partial_set[0]` here, which panics
    /// once every partial member has been promoted — the engine instead
    /// records a skipped recovery and lets the round continue.
    pub fn pick_prosecutor(&self, k: usize) -> Option<NodeId> {
        let partial = &self.committees[k].partial_set;
        partial
            .iter()
            .copied()
            .find(|&pm| self.registry.node(pm).is_honest())
            .or_else(|| partial.first().copied())
    }

    /// Runs the recovery procedure for committee `k` with an automatically
    /// picked prosecutor, keeping the eviction ledger and skip counter
    /// consistent. Returns what happened.
    pub fn attempt_recovery(&mut self, k: usize, accusation: Accusation) -> RecoveryAttempt {
        let Some(prosecutor) = self.pick_prosecutor(k) else {
            let accused = self.committees[k].leader;
            self.recovery_log.push(RecoveryRecord {
                committee: k,
                accused,
                accused_was_honest: self.registry.node(accused).is_honest(),
                prosecutor: None,
                committee_size: self.committees[k].size(),
                approvals: 0,
                outcome: RecoveryOutcome::Skipped,
            });
            return RecoveryAttempt::Skipped;
        };
        self.attempt_recovery_by(k, accusation, prosecutor)
    }

    /// Like [`attempt_recovery`](Self::attempt_recovery) but with an explicit
    /// prosecutor (censorship reports name their reporter).
    pub fn attempt_recovery_by(
        &mut self,
        k: usize,
        accusation: Accusation,
        prosecutor: NodeId,
    ) -> RecoveryAttempt {
        let accused = self.committees[k].leader;
        let accused_was_honest = self.registry.node(accused).is_honest();
        // The accusation broadcast and impeachment votes ride the faulted
        // network. Recoveries run sequentially on the driver thread, so the
        // attempt index makes the seed unique and deterministic.
        let seed = self.config.seed
            ^ (self.round << 40)
            ^ ((self.recovery_log.len() as u64) << 8)
            ^ k as u64;
        let (outcome, counters) = run_recovery(
            self.registry,
            &mut self.committees[k],
            &self.referee,
            accusation,
            prosecutor,
            self.reputation,
            self.round,
            self.config.verify_signatures,
            self.config.latency,
            self.faults,
            seed,
            &mut self.metrics,
        );
        self.net += counters;
        let (attempt, logged) = match outcome.evicted {
            Some(old) => {
                self.evicted.push((k, old));
                (RecoveryAttempt::Evicted(old), RecoveryOutcome::Evicted)
            }
            None => (RecoveryAttempt::Rejected, RecoveryOutcome::Rejected),
        };
        self.recovery_log.push(RecoveryRecord {
            committee: k,
            accused,
            accused_was_honest,
            prosecutor: Some(prosecutor),
            committee_size: self.committees[k].size(),
            approvals: outcome.approvals,
            outcome: logged,
        });
        attempt
    }

    /// Role groups of this round's assignment (Table II reporting).
    fn role_groups(&self) -> RoleGroups {
        let mut groups = RoleGroups {
            referee_members: self.assignment.referee.clone(),
            ..Default::default()
        };
        for c in &self.assignment.committees {
            groups.key_members.push(c.leader);
            groups.key_members.extend_from_slice(&c.partial_set);
            groups.common_members.extend_from_slice(c.common_members());
        }
        groups
    }

    /// Consumes the context into the round's public output, assembling the
    /// [`RoundReport`] from the phase artifacts.
    pub fn into_output(self) -> RoundOutput {
        let roles = self.role_groups();
        let inter = self.inter.unwrap_or_default();
        let block_outcome = self.block_outcome.expect("block generation phase ran");

        let topology: RoundTopology = self.assignment.topology(self.registry.len());
        let channels = topology.channels.channel_count();
        let full_clique = RoundTopology::full_clique_channels(self.registry.len());

        let txs_packed = block_outcome
            .block
            .as_ref()
            .map(|b| b.tx_count())
            .unwrap_or(0);
        let cross_packed = block_outcome
            .block
            .as_ref()
            .map(|b| {
                b.transactions
                    .iter()
                    .filter(|t| self.cross_packed_ids.contains(&t.id()))
                    .count()
            })
            .unwrap_or(0);
        let fees = block_outcome
            .block
            .as_ref()
            .map(|b| b.total_fees())
            .unwrap_or(0);

        let report = RoundReport {
            round: self.round,
            block_produced: block_outcome.block.is_some(),
            txs_offered: self.offered_total,
            txs_offered_valid: self.offered_valid,
            txs_offered_cross_shard: self.offered_cross,
            txs_packed,
            txs_packed_cross_shard: cross_packed,
            rejected_by_referee: block_outcome.rejected_by_referee,
            evicted_leaders: self.evicted,
            witnesses: self.witnesses,
            skipped_recoveries: self
                .recovery_log
                .iter()
                .filter(|r| r.outcome == RecoveryOutcome::Skipped)
                .count(),
            censorship_reports: self.censorship_count,
            recovery_log: self.recovery_log,
            fees_distributed: fees,
            channels,
            full_clique_channels: full_clique,
            metrics: self.metrics,
            roles,
            timeout_delays_us: inter.timeout_delays,
            quorum_timeouts: self.net.quorum_timeouts,
            list_timeouts: self.net.list_timeouts,
            votes_missing: self.net.votes_missing,
            net_dropped_messages: self.net.dropped,
            syncing_abstentions: self.net.syncing_abstentions,
            syncing_votes: self.net.syncing_votes,
            // Attached by the simulation driver when this round closes an
            // epoch (see `Simulation::run_round_observed`).
            epoch_transition: None,
            // Attached by the simulation driver when the run is open-loop.
            traffic: None,
            state_roots: self.state_roots,
        };

        RoundOutput {
            block: block_outcome.block,
            next_assignment: self.selection.and_then(|s| s.next_assignment),
            report,
        }
    }
}
