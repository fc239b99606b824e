//! The three benchmark workloads and the episode runner that runs one of
//! them from a seed through the public `Simulation` API.
//!
//! All workloads share: signatures verified, the message-driven data plane,
//! two executor workers, one process, and `pipelined` at its default.

use cycledger_ledger::StateBackend;
use cycledger_net::faults::FaultPlan;
use cycledger_net::time::SimDuration;
use cycledger_net::topology::NodeId;
use cycledger_protocol::engine::RoundObserver;
use cycledger_protocol::traffic::{capacity_tps, ArrivalShape, TrafficConfig};
use cycledger_protocol::{AdversaryConfig, Behavior, ProtocolConfig, RoundReport, Simulation};

/// Leader faults injected on `faulty-open`, cycled in this order.
const LEADER_FAULTS: [Behavior; 4] = [
    Behavior::SilentLeader,
    Behavior::EquivocatingLeader,
    Behavior::CensoringLeader,
    Behavior::MismatchedCommitment,
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 8×16, 400 tx/round closed loop, honest, map store.
    VerifiedClosed,
    /// 8×16, Poisson arrivals at 0.6× capacity, a leader corrupted every
    /// second round, 2% loss and 5 ms jitter.
    FaultyOpen,
    /// 4×16, 1600 tx/round closed loop, 50% cross-shard, sparse-Merkle
    /// store, an epoch boundary (2 joins, 2 leaves) every second round.
    ChurnState,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::VerifiedClosed,
        Workload::FaultyOpen,
        Workload::ChurnState,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifiedClosed => "verified-closed",
            Workload::FaultyOpen => "faulty-open",
            Workload::ChurnState => "churn-state",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds per episode. Fixed, so memory and state size at the end of an
    /// episode do not depend on how fast the machine is.
    pub fn rounds(self) -> usize {
        match self {
            Workload::VerifiedClosed => 12,
            Workload::FaultyOpen => 12,
            Workload::ChurnState => 16,
        }
    }

    /// Closed-loop workloads offer a fixed batch every round.
    pub fn closed_loop(self) -> bool {
        self != Workload::FaultyOpen
    }

    /// The protocol configuration of one episode.
    pub fn config(self, seed: u64) -> ProtocolConfig {
        let mut config = ProtocolConfig {
            committees: 8,
            committee_size: 16,
            partial_set_size: 4,
            referee_size: 7,
            txs_per_round: 400,
            cross_shard_ratio: 0.2,
            invalid_ratio: 0.05,
            accounts_per_shard: 96,
            pow_difficulty: 2,
            verify_signatures: true,
            message_driven: true,
            worker_threads: 2,
            seed,
            ..ProtocolConfig::default()
        };
        match self {
            Workload::VerifiedClosed => {}
            Workload::FaultyOpen => {
                config.traffic = Some(TrafficConfig {
                    rate_tps: 0.6 * capacity_tps(config.txs_per_round, &config.latency),
                    shape: ArrivalShape::Poisson,
                    warmup_rounds: 2,
                });
            }
            Workload::ChurnState => {
                config.committees = 4;
                config.txs_per_round = 1600;
                config.cross_shard_ratio = 0.5;
                config.state_backend = StateBackend::Smt;
                config.epoch_length = 2;
                config.joins_per_epoch = 2;
                config.leaves_per_epoch = 2;
            }
        }
        config
    }
}

/// A leader corrupted before a round: the round (0-based) and the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Index of the round the leader led.
    pub round: usize,
    /// The corrupted leader.
    pub leader: NodeId,
}

/// One simulation run of a workload from one seed.
pub struct Episode {
    /// The workload being driven.
    pub workload: Workload,
    /// The episode's seed.
    pub seed: u64,
    /// The simulation.
    pub sim: Simulation,
    /// Every leader corrupted so far.
    pub injections: Vec<Injection>,
}

impl Episode {
    /// Builds the simulation (`verify = false` skips signature checks, which
    /// never changes a decision: the canonical digest is identical).
    pub fn new(workload: Workload, seed: u64, verify: bool) -> Result<Episode, String> {
        let mut config = workload.config(seed);
        config.verify_signatures = verify;
        let mut sim = Simulation::new(config)?;
        if workload == Workload::FaultyOpen {
            sim.set_fault_plan(FaultPlan {
                drop_ppm: 20_000,
                jitter: SimDuration::from_millis(5),
                ..FaultPlan::default()
            });
        }
        Ok(Episode {
            workload,
            seed,
            sim,
            injections: Vec::new(),
        })
    }

    /// True when the network drops messages, which breaks the synchrony
    /// the paper's soundness claim rests on.
    pub fn lossy(&self) -> bool {
        self.sim.fault_plan().drop_ppm > 0
    }

    /// The same episode with message loss switched off and jitter kept, so
    /// every message arrives within the synchrony bound.
    pub fn without_loss(mut self) -> Episode {
        let mut plan = self.sim.fault_plan().clone();
        plan.drop_ppm = 0;
        self.sim.set_fault_plan(plan);
        self
    }

    /// Runs the next round. On `faulty-open`, every second round's leader
    /// of one committee is corrupted first, cycling committees and fault
    /// kinds, while the corrupted count stays within `t < n/3`.
    pub fn step(&mut self, observer: &mut dyn RoundObserver) -> &RoundReport {
        let round = self.sim.reports().len();
        if self.workload == Workload::FaultyOpen && round % 2 == 1 {
            let registry = self.sim.registry();
            if registry.malicious_count() < AdversaryConfig::max_corrupted(registry.len()) {
                let n = self.injections.len();
                let committees = &self.sim.assignment().committees;
                let leader = committees[n % committees.len()].leader;
                self.sim
                    .registry_mut()
                    .set_behavior(leader, LEADER_FAULTS[n % LEADER_FAULTS.len()]);
                self.injections.push(Injection { round, leader });
            }
        }
        self.sim.run_round_observed(observer)
    }
}

/// Seed of episode `index` of a run seeded with `seed` (splitmix64 mix, so
/// neighbouring run seeds share no episode).
pub fn episode_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_configs_validate() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(w.config(7).validate(), Ok(()));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn episode_seeds_differ() {
        let seeds: Vec<u64> = (0..4)
            .flat_map(|s| (0..4).map(move |i| episode_seed(s, i)))
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
