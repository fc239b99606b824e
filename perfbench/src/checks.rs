//! Correctness checks run on every benchmark run. Each takes plain data
//! pulled out of the simulation, so the tests can feed it fabricated input
//! and show it failing.

use cycledger_crypto::sha256::{sha256, Digest};
use cycledger_crypto::{verify_proof, ProofTerminal};
use cycledger_ledger::smt::key_digest;
use cycledger_ledger::{OutPoint, UtxoSet};
use cycledger_net::topology::NodeId;
use cycledger_protocol::RoundReport;

use crate::workload::Injection;

/// Inclusion proofs sampled per shard by [`state_audit`].
const PROOF_SAMPLES_PER_SHARD: usize = 4;

/// The failures collected over a run; empty means every check passed.
#[derive(Debug, Default)]
pub struct Checks {
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records the outcome of one check.
    pub fn record(&mut self, outcome: Result<(), String>) {
        if let Err(failure) = outcome {
            self.failures.push(failure);
        }
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// No honest node was evicted by a recovery (soundness, Claim 4).
pub fn no_honest_punished(punished: &[NodeId]) -> Result<(), String> {
    match punished {
        [] => Ok(()),
        _ => Err(format!("honest nodes punished: {punished:?}")),
    }
}

/// Honest nodes punished across `reports`.
pub fn punished_honest(reports: &[RoundReport]) -> Vec<NodeId> {
    reports.iter().flat_map(|r| r.punished_honest()).collect()
}

/// Observing a run must not change its output.
pub fn same_digest(untraced: Digest, traced: Digest) -> Result<(), String> {
    if untraced == traced {
        Ok(())
    } else {
        Err(format!(
            "canonical digest differs: {} untraced, {} traced",
            untraced.to_hex(),
            traced.to_hex()
        ))
    }
}

/// Every round of a closed-loop run produced a block.
pub fn every_round_blocks(blocks: &[bool]) -> Result<(), String> {
    match blocks.iter().position(|produced| !produced) {
        None => Ok(()),
        Some(round) => Err(format!("round {round} produced no block")),
    }
}

/// Every corrupted leader was evicted, in the round it led or later;
/// `evicted[r]` lists the leaders evicted in round `r`. A censoring leader
/// can keep its seat for one more round before the evidence convicts it.
pub fn injected_evicted(injections: &[Injection], evicted: &[Vec<NodeId>]) -> Result<(), String> {
    let missed: Vec<&Injection> = injections
        .iter()
        .filter(|i| {
            !evicted
                .get(i.round..)
                .is_some_and(|later| later.iter().any(|e| e.contains(&i.leader)))
        })
        .collect();
    if missed.is_empty() {
        Ok(())
    } else {
        Err(format!("corrupted leaders not evicted: {missed:?}"))
    }
}

/// Leaders evicted per round.
pub fn evicted_per_round(reports: &[RoundReport]) -> Vec<Vec<NodeId>> {
    reports
        .iter()
        .map(|r| r.evicted_leaders.iter().map(|&(_, node)| node).collect())
        .collect()
}

/// Each shard's reported state root equals its store's root, and sampled
/// inclusion proofs (the first outpoints in key order) and one exclusion
/// proof per shard verify against it, as a light client would check them.
pub fn state_audit(reported: &[Digest], sets: &[UtxoSet]) -> Result<(), String> {
    if reported.len() != sets.len() {
        return Err(format!(
            "{} state roots reported for {} shards",
            reported.len(),
            sets.len()
        ));
    }
    for (shard, (set, &root)) in sets.iter().zip(reported).enumerate() {
        if set.state_root() != Some(root) {
            return Err(format!("shard {shard}: reported root is not the store's"));
        }
        for outpoint in set.sorted_outpoints().iter().take(PROOF_SAMPLES_PER_SHARD) {
            let verified = set.prove(outpoint).is_some_and(|proof| {
                matches!(proof.terminal, ProofTerminal::Included { .. })
                    && verify_proof(&root, &key_digest(outpoint), &proof).is_ok()
            });
            if !verified {
                return Err(format!("shard {shard}: inclusion proof failed"));
            }
        }
        let absent = OutPoint {
            tx_id: sha256(format!("cycledger/perfbench-absent/{shard}").as_bytes()),
            index: 0,
        };
        let verified = set.prove(&absent).is_some_and(|proof| {
            !matches!(proof.terminal, ProofTerminal::Included { .. })
                && verify_proof(&root, &key_digest(&absent), &proof).is_ok()
        });
        if !verified {
            return Err(format!("shard {shard}: exclusion proof failed"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cycledger_ledger::{StateBackend, Workload as TxWorkload, WorkloadConfig};

    #[test]
    fn honest_punishment_fails() {
        assert!(no_honest_punished(&[]).is_ok());
        assert!(no_honest_punished(&[NodeId(3)]).is_err());
    }

    #[test]
    fn digest_mismatch_fails() {
        let a = sha256(b"a");
        assert!(same_digest(a, a).is_ok());
        assert!(same_digest(a, sha256(b"b")).is_err());
    }

    #[test]
    fn a_missing_block_fails() {
        assert!(every_round_blocks(&[true, true]).is_ok());
        assert_eq!(
            every_round_blocks(&[true, false, true]),
            Err("round 1 produced no block".to_string())
        );
    }

    #[test]
    fn an_unevicted_leader_fails() {
        let injections = [
            Injection {
                round: 1,
                leader: NodeId(5),
            },
            Injection {
                round: 3,
                leader: NodeId(9),
            },
        ];
        let evicted = vec![vec![], vec![NodeId(5)], vec![], vec![NodeId(9)]];
        assert!(injected_evicted(&injections, &evicted).is_ok());
        let late = vec![vec![], vec![], vec![NodeId(5)], vec![NodeId(9)]];
        assert!(injected_evicted(&injections, &late).is_ok());
        // Evicted before it was corrupted, or another leader evicted instead.
        let early = vec![vec![], vec![NodeId(5)], vec![NodeId(9)], vec![]];
        assert!(injected_evicted(&injections, &early).is_err());
        let other = vec![vec![], vec![NodeId(5)], vec![], vec![NodeId(8)]];
        assert!(injected_evicted(&injections, &other).is_err());
        // The run ended before the injected round.
        assert!(injected_evicted(&injections, &evicted[..2]).is_err());
    }

    fn smt_sets() -> Vec<UtxoSet> {
        let workload = TxWorkload::new(WorkloadConfig {
            num_shards: 2,
            accounts_per_shard: 8,
            genesis_amount: 1_000,
            cross_shard_ratio: 0.0,
            invalid_ratio: 0.0,
            seed: 1,
        });
        let mut sets = workload.build_genesis_utxo_sets_with(StateBackend::Smt);
        for set in &mut sets {
            set.commit_genesis();
        }
        sets
    }

    #[test]
    fn a_wrong_or_missing_state_root_fails() {
        let sets = smt_sets();
        let roots: Vec<Digest> = sets.iter().map(|s| s.state_root().unwrap()).collect();
        assert_eq!(state_audit(&roots, &sets), Ok(()));
        let mut wrong = roots.clone();
        wrong[1] = sha256(b"forged");
        assert!(state_audit(&wrong, &sets).is_err());
        assert!(state_audit(&roots[..1], &sets).is_err());
    }

    #[test]
    fn a_map_store_cannot_pass_the_state_audit() {
        let mut sets = smt_sets();
        sets[0] = UtxoSet::with_backend(0, 2, 0, StateBackend::Map);
        let roots = vec![sha256(b"x"), sets[1].state_root().unwrap()];
        assert!(state_audit(&roots, &sets).is_err());
    }
}
