//! The leader re-selection (recovery) procedure — Algorithm 6, §V-D.
//!
//! A partial-set member holding a witness (or a timeout-based censorship
//! report) broadcasts it to its committee and asks for an impeachment vote.
//! Honest members approve only accusations they can verify. If a majority
//! approves, the prosecutor forwards the witness and the vote certificate to the
//! referee committee, which re-verifies it, agrees via Algorithm 3, installs a
//! new leader drawn from the partial set, and punishes the old one (reputation
//! cut to its cube root, §VII-B).
//!
//! The accusation broadcast, impeachment votes and referee notifications
//! travel as envelopes over the round's faulted network, under a `4Δ`
//! approval deadline: members severed from the prosecutor cannot approve, so
//! an impeachment under partition can fail for lack of a majority.

use cycledger_consensus::envelope::CommitteeMessage;
use cycledger_consensus::witness::Witness;
use cycledger_crypto::sha256::hash_parts;
use cycledger_net::faults::FaultPlan;
use cycledger_net::latency::{LatencyConfig, LinkClass};
use cycledger_net::metrics::{MetricsSink, Phase};
use cycledger_net::network::{NetEvent, SimNetwork};
use cycledger_net::topology::NodeId;
use cycledger_reputation::ReputationTable;

use crate::committee::Committee;
use crate::node::NodeRegistry;
use crate::phases::inter::CensorshipReport;
use crate::phases::intra::vote_deadline;

/// Timer key: the prosecutor's impeachment-vote deadline.
const IMPEACH_TIMER: u64 = 3;

/// An accusation against a leader, either backed by a signed witness or by a
/// committee-observable omission (timeout).
#[derive(Clone, Debug)]
// A signed witness dwarfs the timeout variant; accusations are rare,
// short-lived values, so clarity wins over boxing here.
#[allow(clippy::large_enum_variant)]
pub enum Accusation {
    /// A leader-signed witness (equivocation / commitment mismatch).
    Signed(Witness),
    /// A liveness complaint: the leader never proposed / never forwarded.
    /// Honest members approve it only if they observed the omission themselves,
    /// which the simulator encodes in `observed_by_committee`.
    Timeout {
        /// The accused leader.
        leader: NodeId,
        /// The committee that timed out on its leader.
        committee: usize,
        /// True when the committee's honest members actually observed the
        /// omission (false for a fabricated complaint against a live leader).
        observed_by_committee: bool,
    },
}

impl Accusation {
    /// The accused leader.
    pub fn accused(&self) -> NodeId {
        match self {
            Accusation::Signed(w) => w.accused(),
            Accusation::Timeout { leader, .. } => *leader,
        }
    }

    /// Builds a timeout accusation from a censorship report.
    pub fn from_censorship(report: &CensorshipReport) -> Accusation {
        Accusation::Timeout {
            leader: report.leader,
            committee: report.committee,
            observed_by_committee: true,
        }
    }
}

/// Result of running the recovery procedure for one committee.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// Committee index.
    pub committee: usize,
    /// The evicted leader, if the impeachment succeeded.
    pub evicted: Option<NodeId>,
    /// The newly installed leader.
    pub new_leader: Option<NodeId>,
    /// Impeachment approvals counted by the prosecutor (for the refinement
    /// checker: `evicted.is_some()` must imply a committee majority).
    pub approvals: usize,
    /// Why the impeachment failed (for diagnostics / tests).
    pub rejection_reason: Option<&'static str>,
}

/// Runs the recovery procedure for one committee given an accusation.
///
/// Returns the outcome and the number of envelopes the fault plan dropped.
/// On success it mutates `committee` (new leader installed) and `reputation`
/// (cube-root punishment for the old leader).
#[allow(clippy::too_many_arguments)]
pub fn run_recovery(
    registry: &NodeRegistry,
    committee: &mut Committee,
    referee: &Committee,
    accusation: Accusation,
    prosecutor: NodeId,
    reputation: &mut ReputationTable,
    round: u64,
    verify_signatures: bool,
    latency: LatencyConfig,
    plan: &FaultPlan,
    seed: u64,
    metrics: &mut MetricsSink,
) -> (RecoveryOutcome, u64) {
    let phase = Phase::Recovery;
    let accused = accusation.accused();
    let mut net: SimNetwork<CommitteeMessage> =
        SimNetwork::with_faults(latency, seed, plan.clone());
    net.set_phase(phase);

    // Honest members verify the evidence. Simulation fast path: with
    // signature generation disabled, witnesses distilled from Algorithm 3
    // traffic carry placeholder signatures, and honest members skip the
    // cryptographic check — in the simulator a witness only ever originates
    // from a leader that really misbehaved, so outcomes are unchanged (the
    // same contract as `MemberState::set_verify_signatures`).
    let evidence_valid = match &accusation {
        Accusation::Signed(w) => cycledger_consensus::transition::signed_accusation_admissible(
            accused == committee.leader,
            !verify_signatures || w.verify(&registry.node(accused).keypair.public),
        ),
        Accusation::Timeout {
            observed_by_committee,
            ..
        } => cycledger_consensus::transition::timeout_accusation_admissible(
            accused == committee.leader,
            *observed_by_committee,
        ),
    };
    let witness_bytes = match &accusation {
        Accusation::Signed(w) => w.wire_size(),
        Accusation::Timeout { .. } => 64,
    };

    // 1. The prosecutor broadcasts the accusation.
    let envelope = CommitteeMessage::Accusation {
        committee: committee.index as u32,
        accused,
    };
    for &member in &committee.members {
        if member != prosecutor {
            net.send(
                prosecutor,
                member,
                LinkClass::IntraCommittee,
                envelope.clone(),
                witness_bytes,
            );
        }
    }

    // 2. Members vote on the impeachment; approvals must reach the
    //    prosecutor by the 4Δ deadline.
    let member_approves = |member: NodeId| {
        // Malicious members approve anything (worst case for a framed
        // leader) — but they are a minority, so their approvals never
        // carry a vote alone.
        cycledger_consensus::transition::member_approves_impeachment(
            registry.node(member).is_honest(),
            evidence_valid,
        )
    };
    let mut approvals = 0usize;
    if prosecutor != accused && member_approves(prosecutor) {
        approvals += 1;
    }
    net.schedule_timer(vote_deadline(&latency), IMPEACH_TIMER);
    while let Some(event) = net.next_event() {
        match event {
            NetEvent::Message(env) => match env.payload {
                CommitteeMessage::Accusation { .. } => {
                    if env.to == accused || !registry.node(env.to).membership.may_vote() {
                        // The accused never votes on its own impeachment, and
                        // syncing joiners abstain (counted against approval,
                        // same quorum math as their all-Unknown tx votes).
                        continue;
                    }
                    let approve = member_approves(env.to);
                    net.send(
                        env.to,
                        prosecutor,
                        LinkClass::IntraCommittee,
                        CommitteeMessage::ImpeachVote {
                            committee: committee.index as u32,
                            approve,
                        },
                        8,
                    );
                }
                CommitteeMessage::ImpeachVote { approve, .. }
                    if env.to == prosecutor && approve =>
                {
                    approvals += 1;
                }
                _ => {}
            },
            NetEvent::Timer {
                key: IMPEACH_TIMER, ..
            } => break,
            NetEvent::Timer { .. } => {}
        }
    }

    // Close the driven books and return.
    let mut finish = |net: SimNetwork<CommitteeMessage>, outcome: RecoveryOutcome| {
        let mut net = net;
        while net.next_event().is_some() {}
        let dropped = net.dropped_messages();
        metrics.merge(net.metrics());
        (outcome, dropped)
    };

    if !cycledger_consensus::transition::impeachment_passes(approvals, committee.size()) {
        return finish(
            net,
            RecoveryOutcome {
                committee: committee.index,
                evicted: None,
                new_leader: None,
                approvals,
                rejection_reason: Some("impeachment did not reach a committee majority"),
            },
        );
    }

    // 3. The prosecutor forwards accusation + vote certificate to C_R, which
    //    re-verifies the evidence itself before acting (Claim 4: malicious
    //    committee votes alone can never evict an honest leader).
    for &rm in &referee.members {
        net.send(
            prosecutor,
            rm,
            LinkClass::KeyMemberMesh,
            envelope.clone(),
            witness_bytes + 8 * approvals as u64,
        );
    }
    if !evidence_valid {
        return finish(
            net,
            RecoveryOutcome {
                committee: committee.index,
                evicted: None,
                new_leader: None,
                approvals,
                rejection_reason: Some("referee committee rejected the evidence"),
            },
        );
    }

    // 4. C_R agrees and notifies the committee of the new leader, chosen from
    //    the partial set by a hash lottery over the round randomness.
    for &rm in &referee.members {
        for &member in &committee.members {
            net.send(
                rm,
                member,
                LinkClass::KeyMemberMesh,
                CommitteeMessage::Accusation {
                    committee: committee.index as u32,
                    accused,
                },
                16,
            );
        }
    }
    let candidates: Vec<NodeId> = committee
        .partial_set
        .iter()
        .copied()
        .filter(|&n| n != accused)
        .collect();
    if candidates.is_empty() {
        return finish(
            net,
            RecoveryOutcome {
                committee: committee.index,
                evicted: None,
                new_leader: None,
                approvals,
                rejection_reason: Some("no partial-set member available to take over"),
            },
        );
    }
    let pick = hash_parts(&[
        b"cycledger/new-leader",
        &round.to_be_bytes(),
        &(committee.index as u64).to_be_bytes(),
        &accused.0.to_be_bytes(),
    ])
    .prefix_u64() as usize
        % candidates.len();
    let new_leader = candidates[pick];
    committee.install_leader(new_leader);
    reputation.punish_leader(accused);

    finish(
        net,
        RecoveryOutcome {
            committee: committee.index,
            evicted: Some(accused),
            new_leader: Some(new_leader),
            approvals,
            rejection_reason: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryConfig, Behavior};
    use crate::sortition::{assign_round, AssignmentParams};
    use cycledger_consensus::witness::{member_list_signing_bytes, CommitmentMismatchEvidence};
    use cycledger_crypto::schnorr::sign;
    use cycledger_crypto::sha256::sha256;

    fn fixture(seed: u64) -> (NodeRegistry, Committee, Committee) {
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
            sha256(b"recovery"),
            &reputation,
        );
        let committee = Committee::from_assignment(&assignment.committees[0], &registry);
        let referee = Committee {
            index: usize::MAX,
            leader: assignment.referee[0],
            partial_set: Vec::new(),
            members: assignment.referee.clone(),
            keys: registry.committee_keys(&assignment.referee),
        };
        (registry, committee, referee)
    }

    fn real_witness(registry: &NodeRegistry, committee: &Committee) -> Witness {
        let list = committee.member_list_bytes(registry);
        let signature = sign(
            &registry.node(committee.leader).keypair.secret,
            &member_list_signing_bytes(1, committee.index, &list),
        );
        Witness::CommitmentMismatch(CommitmentMismatchEvidence {
            round: 1,
            committee: committee.index,
            leader: committee.leader,
            member_list: list,
            list_signature: signature,
            recorded_commitment: sha256(b"a different commitment"),
        })
    }

    #[test]
    fn valid_witness_evicts_and_punishes_leader() {
        let (registry, mut committee, referee) = fixture(101);
        let old_leader = committee.leader;
        let prosecutor = committee.partial_set[0];
        let mut reputation = ReputationTable::with_members(registry.ids());
        reputation.add_score(old_leader, 27.0);
        let mut metrics = MetricsSink::new();
        let accusation = Accusation::Signed(real_witness(&registry, &committee));
        let outcome = run_recovery(
            &registry,
            &mut committee,
            &referee,
            accusation,
            prosecutor,
            &mut reputation,
            1,
            true,
            LatencyConfig::default(),
            &FaultPlan::default(),
            1,
            &mut metrics,
        )
        .0;
        assert_eq!(outcome.evicted, Some(old_leader));
        let new_leader = outcome.new_leader.expect("new leader installed");
        assert_ne!(new_leader, old_leader);
        assert_eq!(committee.leader, new_leader);
        assert!(!committee.partial_set.contains(&new_leader));
        // Cube-root punishment: 27 → 3.
        assert!((reputation.get(old_leader) - 3.0).abs() < 1e-9);
        assert!(metrics.phase_total(Phase::Recovery).msgs_sent > 0);
    }

    #[test]
    fn forged_witness_cannot_frame_an_honest_leader() {
        let (registry, mut committee, referee) = fixture(102);
        let honest_leader = committee.leader;
        // The false accuser forges "evidence" signed with its own key.
        let accuser = committee.partial_set[0];
        let forged_list = committee.member_list_bytes(&registry);
        let forged = Witness::CommitmentMismatch(CommitmentMismatchEvidence {
            round: 1,
            committee: committee.index,
            leader: honest_leader,
            member_list: forged_list.clone(),
            list_signature: sign(
                &registry.node(accuser).keypair.secret,
                &member_list_signing_bytes(1, committee.index, &forged_list),
            ),
            recorded_commitment: sha256(b"fake"),
        });
        let mut reputation = ReputationTable::with_members(registry.ids());
        let outcome = run_recovery(
            &registry,
            &mut committee,
            &referee,
            Accusation::Signed(forged),
            accuser,
            &mut reputation,
            1,
            true,
            LatencyConfig::default(),
            &FaultPlan::default(),
            1,
            &mut MetricsSink::new(),
        )
        .0;
        assert_eq!(outcome.evicted, None);
        assert!(outcome.rejection_reason.is_some());
        assert_eq!(committee.leader, honest_leader, "leader must keep its seat");
        assert_eq!(reputation.get(honest_leader), 0.0, "no punishment applied");
    }

    #[test]
    fn observed_timeout_evicts_silent_leader() {
        let (mut registry, mut committee, referee) = fixture(103);
        registry.set_behavior(committee.leader, Behavior::SilentLeader);
        let old_leader = committee.leader;
        let prosecutor = committee
            .partial_set
            .iter()
            .copied()
            .find(|&pm| registry.node(pm).is_honest())
            .unwrap();
        let mut reputation = ReputationTable::with_members(registry.ids());
        let accusation = Accusation::Timeout {
            leader: old_leader,
            committee: committee.index,
            observed_by_committee: true,
        };
        let outcome = run_recovery(
            &registry,
            &mut committee,
            &referee,
            accusation,
            prosecutor,
            &mut reputation,
            2,
            true,
            LatencyConfig::default(),
            &FaultPlan::default(),
            1,
            &mut MetricsSink::new(),
        )
        .0;
        assert_eq!(outcome.evicted, Some(old_leader));
        assert!(outcome.new_leader.is_some());
    }

    #[test]
    fn unobserved_timeout_accusation_is_rejected() {
        let (registry, mut committee, referee) = fixture(104);
        let leader = committee.leader;
        let accuser = committee.partial_set[0];
        let mut reputation = ReputationTable::with_members(registry.ids());
        let accusation = Accusation::Timeout {
            leader,
            committee: committee.index,
            observed_by_committee: false,
        };
        let outcome = run_recovery(
            &registry,
            &mut committee,
            &referee,
            accusation,
            accuser,
            &mut reputation,
            2,
            true,
            LatencyConfig::default(),
            &FaultPlan::default(),
            1,
            &mut MetricsSink::new(),
        )
        .0;
        assert_eq!(outcome.evicted, None);
        assert_eq!(committee.leader, leader);
    }
}
