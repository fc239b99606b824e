//! Phase 5 — reputation updating (§IV-E).
//!
//! For every committee that completed its consensus, the leader scores each
//! member by the cosine similarity between the member's vote vector and the
//! committee decision (Eq. 1), gets the `ScoreList` certified with Algorithm 3,
//! and forwards it to the referee committee, which adds the scores to the
//! global reputation table and credits the leader bonus.

use cycledger_consensus::envelope::CommitteeMessage;
use cycledger_consensus::messages::ConsensusId;
use cycledger_consensus::votes::VoteList;
use cycledger_net::latency::LatencyConfig;
use cycledger_net::metrics::{MetricsSink, Phase};
use cycledger_net::network::SimNetwork;
use cycledger_net::topology::NodeId;
use cycledger_reputation::{cosine_score, ReputationTable};

use crate::committee::{run_inside_consensus, Committee, LeaderFault};
use crate::node::NodeRegistry;

/// Scores produced for one committee.
#[derive(Clone, Debug, Default)]
pub struct CommitteeScores {
    /// Committee index.
    pub committee: usize,
    /// `(member, score)` pairs in member order.
    pub scores: Vec<(NodeId, f64)>,
    /// Whether the score list was certified and therefore applied.
    pub certified: bool,
}

/// Computes every member's cosine score from a vote list and decision vector.
pub fn score_committee(vote_list: &VoteList, decision: &[i8]) -> Vec<(NodeId, f64)> {
    vote_list
        .votes
        .iter()
        .map(|vector| {
            let votes: Vec<i8> = vector.votes.iter().map(|v| v.as_i8()).collect();
            (vector.voter, cosine_score(&votes, decision))
        })
        .collect()
}

/// Runs the reputation-update phase for all committees and applies certified
/// scores (plus leader bonuses) to the reputation table.
#[allow(clippy::too_many_arguments)]
pub fn run_reputation_update(
    registry: &NodeRegistry,
    committees: &[Committee],
    referee_members: &[NodeId],
    inputs: &[(usize, &VoteList, &[i8], bool)],
    reputation: &mut ReputationTable,
    leader_bonus: f64,
    round: u64,
    latency: LatencyConfig,
    verify_signatures: bool,
    seed: u64,
    metrics: &mut MetricsSink,
) -> Vec<CommitteeScores> {
    let phase = Phase::ReputationUpdate;
    let mut all_scores = Vec::new();
    for &(committee_index, vote_list, decision, leader_ok) in inputs {
        let committee = &committees[committee_index];
        if !leader_ok || vote_list.tx_ids.is_empty() {
            // A silent/evicted leader produced no decision this round; the
            // committee's members keep their reputation unchanged.
            all_scores.push(CommitteeScores {
                committee: committee_index,
                scores: Vec::new(),
                certified: false,
            });
            continue;
        }
        let scores = score_committee(vote_list, decision);

        // The leader broadcasts ScoreList + V List and the committee certifies it.
        let mut net: SimNetwork<CommitteeMessage> =
            SimNetwork::new(latency, seed ^ (0xabc0 + committee_index as u64));
        net.set_phase(phase);
        let mut payload = Vec::with_capacity(scores.len() * 12);
        for (node, score) in &scores {
            payload.extend_from_slice(&node.0.to_be_bytes());
            payload.extend_from_slice(&ReputationTable::to_fixed_point(*score).to_be_bytes());
        }
        let payload_len = payload.len() as u64;
        let consensus = run_inside_consensus(
            &mut net,
            committee,
            registry,
            ConsensusId {
                round,
                seq: 4_000 + committee_index as u64,
            },
            payload,
            LeaderFault::None,
            verify_signatures,
        );
        metrics.merge(net.metrics());

        let certified = consensus.certificate.is_some();
        if certified {
            // Leader forwards the certified score list to the referee committee.
            let cert_bytes = consensus
                .certificate
                .as_ref()
                .map(|c| c.wire_size())
                .unwrap_or(0);
            for &rm in referee_members {
                metrics.record_message(phase, committee.leader, rm, payload_len + cert_bytes);
                metrics.record_storage(phase, rm, payload_len);
            }
            // The referee committee applies the scores and the leader bonus.
            for (node, score) in &scores {
                reputation.add_score(*node, *score);
            }
            reputation.grant_leader_bonus(committee.leader, leader_bonus);
        }
        all_scores.push(CommitteeScores {
            committee: committee_index,
            scores,
            certified,
        });
    }
    all_scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::votes::{Vote, VoteVector};
    use cycledger_crypto::sha256::sha256;

    fn fixture(seed: u64) -> (NodeRegistry, Vec<Committee>, Vec<NodeId>) {
        let registry = NodeRegistry::generate(60, &AdversaryConfig::default(), 100, 0, seed);
        let reputation = ReputationTable::with_members(registry.ids());
        let assignment = assign_round(
            &registry,
            &registry.ids(),
            AssignmentParams {
                committees: 2,
                partial_set_size: 3,
                referee_size: 5,
            },
            1,
            sha256(b"rep-phase"),
            &reputation,
        );
        let committees: Vec<Committee> = assignment
            .committees
            .iter()
            .map(|c| Committee::from_assignment(c, &registry))
            .collect();
        (registry, committees, assignment.referee)
    }

    fn vote_list_for(
        committee: &Committee,
        right: &[NodeId],
        wrong: &[NodeId],
    ) -> (VoteList, Vec<i8>) {
        let tx_ids: Vec<_> = (0..4u64).map(|i| sha256(&i.to_be_bytes())).collect();
        let mut list = VoteList::new(tx_ids);
        for &member in &committee.members {
            let vote = if wrong.contains(&member) {
                vec![Vote::No; 4]
            } else if right.contains(&member) {
                vec![Vote::Yes; 4]
            } else {
                vec![Vote::Unknown; 4]
            };
            list.record(VoteVector::new(member, vote));
        }
        (list, vec![1, 1, 1, 1])
    }

    #[test]
    fn scores_follow_vote_quality() {
        let (registry, committees, referee) = fixture(71);
        let committee = &committees[0];
        let right: Vec<NodeId> = committee.members[..committee.members.len() / 2].to_vec();
        let wrong = vec![*committee.members.last().unwrap()];
        let (vote_list, decision) = vote_list_for(committee, &right, &wrong);
        let mut reputation = ReputationTable::with_members(registry.ids());
        let mut metrics = MetricsSink::new();
        let outcome = run_reputation_update(
            &registry,
            &committees,
            &referee,
            &[(0, &vote_list, &decision, true)],
            &mut reputation,
            0.1,
            1,
            LatencyConfig::default(),
            true,
            1,
            &mut metrics,
        );
        assert_eq!(outcome.len(), 1);
        assert!(outcome[0].certified);
        // Correct voters gained a full point, wrong voters lost one, idle zero.
        for &node in &right {
            let expected = if node == committee.leader { 1.1 } else { 1.0 };
            assert!(
                (reputation.get(node) - expected).abs() < 1e-9,
                "node {node:?}"
            );
        }
        assert!((reputation.get(wrong[0]) + 1.0).abs() < 1e-9);
        // Referee members received and stored the certified score lists.
        assert!(
            metrics
                .node_phase(referee[0], Phase::ReputationUpdate)
                .msgs_received
                > 0
        );
    }

    #[test]
    fn uncertified_committees_leave_reputation_untouched() {
        let (registry, committees, referee) = fixture(72);
        let committee = &committees[1];
        let (vote_list, decision) = vote_list_for(committee, &committee.members, &[]);
        let mut reputation = ReputationTable::with_members(registry.ids());
        let outcome = run_reputation_update(
            &registry,
            &committees,
            &referee,
            &[(1, &vote_list, &decision, false)],
            &mut reputation,
            0.1,
            1,
            LatencyConfig::default(),
            true,
            2,
            &mut MetricsSink::new(),
        );
        assert!(!outcome[0].certified);
        assert!(registry.ids().iter().all(|&n| reputation.get(n) == 0.0));
    }

    #[test]
    fn score_committee_matches_cosine() {
        let (_, committees, _) = fixture(73);
        let committee = &committees[0];
        let (vote_list, decision) = vote_list_for(committee, &committee.members, &[]);
        let scores = score_committee(&vote_list, &decision);
        assert_eq!(scores.len(), committee.size());
        assert!(scores.iter().all(|(_, s)| (*s - 1.0).abs() < 1e-9));
        let _ = Behavior::Honest;
    }
}
