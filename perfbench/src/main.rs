//! The CycLedger benchmark: runs one workload from a seed through the
//! public `Simulation` API for a fixed time, checks the outputs, and prints
//! every metric by name with its unit. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verified-closed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured untraced.
//! `--trace 1` runs each episode twice, untraced and traced, reports the
//! per-layer metrics and writes the spans to `perfbench/traces/`.
//! An operation is one simulated round; a failed check fails them all and
//! makes the exit code 1.

mod checks;
mod stats;
mod trace;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use cycledger_crypto::schnorr::{self, BatchEntry, Keypair};
use cycledger_crypto::sha256::{sha256, Digest};
use cycledger_crypto::vrf;
use cycledger_net::metrics::Phase;
use cycledger_protocol::engine::{NoopObserver, RoundObserver};
use cycledger_protocol::traffic::{nominal_round_duration, TrafficSnapshot};
use cycledger_protocol::{RoundReport, SimulationSummary};

use checks::Checks;
use trace::Tracer;
use workload::{episode_seed, Episode, Workload};

#[global_allocator]
static ALLOC: alloccount::CountingAllocator = alloccount::CountingAllocator;

/// Setups timed per run at least, for a steady `setup_s` median.
const MIN_SETUPS: usize = 5;
/// Rounds of episode 0 replayed with a tracer attached in untraced runs,
/// to check that observing a run does not change its output.
const REPLAY_ROUNDS: usize = 3;
/// `faulty-open` virtual-time episodes per run, and their length. Their
/// outcome is a deterministic function of the seed, so a fixed count keeps
/// the confirm-latency metrics independent of machine speed. An episode
/// ends six rounds after its last censoring stall, once the backlog that
/// stall built has drained.
const VIRTUAL_EPISODES: u64 = 7;
const VIRTUAL_ROUNDS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Wall-clock timing of one episode.
struct Timing {
    /// `Simulation::new` plus the first round.
    setup_s: f64,
    /// Wall time of each measured round (every round but the first).
    round_s: Vec<f64>,
    /// Executor batches over the measured rounds.
    batches: usize,
}

impl Timing {
    fn measured_s(&self) -> f64 {
        self.round_s.iter().sum()
    }
}

/// Runs one episode of `rounds` rounds, timing the setup and every later
/// round. With a tracer, each round is also a span.
fn run_episode(
    workload: Workload,
    seed: u64,
    verify: bool,
    rounds: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Episode, Timing), String> {
    let start = Instant::now();
    let mut episode = Episode::new(workload, seed, verify)?;
    let step = |episode: &mut Episode, tracer: &mut Option<&mut Tracer>| match tracer {
        Some(t) => t.round(|t| episode.step(t).round),
        None => {
            episode.step(&mut NoopObserver);
        }
    };
    if let Some(t) = tracer.as_deref_mut() {
        t.measured = false;
    }
    step(&mut episode, &mut tracer);
    let setup_s = start.elapsed().as_secs_f64();
    if let Some(t) = tracer.as_deref_mut() {
        t.measured = true;
    }
    let batches = episode.sim.executor().batches_executed();
    let mut round_s = Vec::with_capacity(rounds);
    for _ in 1..rounds {
        let t = Instant::now();
        step(&mut episode, &mut tracer);
        round_s.push(t.elapsed().as_secs_f64());
    }
    let batches = episode.sim.executor().batches_executed() - batches;
    Ok((
        episode,
        Timing {
            setup_s,
            round_s,
            batches,
        },
    ))
}

fn digest(reports: &[RoundReport]) -> Digest {
    SimulationSummary {
        rounds: reports.to_vec(),
    }
    .canonical_digest()
}

/// The checks every episode must pass.
fn check_episode(episode: &mut Episode, checks: &mut Checks) -> Result<(), String> {
    let reports = episode.sim.reports();
    let punished = checks::punished_honest(reports);
    if !punished.is_empty() && episode.lossy() {
        // A leader whose messages were lost looks silent, so under message
        // loss the recovery can impeach an honest one. That is outside the
        // paper's synchrony model; the claim must still hold on the same
        // episode run with every message delivered.
        let mut twin = Episode::new(episode.workload, episode.seed, false)?.without_loss();
        for _ in reports {
            twin.step(&mut NoopObserver);
        }
        eprintln!(
            "note: message loss got honest leaders {punished:?} evicted (episode seed {}); \
             checking the loss-free run instead",
            episode.seed
        );
        checks.record(checks::no_honest_punished(&checks::punished_honest(
            twin.sim.reports(),
        )));
    } else {
        checks.record(checks::no_honest_punished(&punished));
    }
    if episode.workload.closed_loop() {
        let blocks: Vec<bool> = reports.iter().map(|r| r.block_produced).collect();
        checks.record(checks::every_round_blocks(&blocks));
    }
    checks.record(checks::injected_evicted(
        &episode.injections,
        &checks::evicted_per_round(reports),
    ));
    if episode.workload == Workload::ChurnState {
        let reported = reports
            .last()
            .map(|r| r.state_roots.clone())
            .unwrap_or_default();
        checks.record(checks::state_audit(&reported, episode.sim.utxo_sets()));
    }
    Ok(())
}

/// Replays the first rounds of an episode with `observer` attached and
/// checks they reach the same digest as `reports`.
fn check_replay(
    workload: Workload,
    seed: u64,
    verify: bool,
    reports: &[RoundReport],
    observer: &mut dyn RoundObserver,
    checks: &mut Checks,
) -> Result<(), String> {
    let mut replay = Episode::new(workload, seed, verify)?;
    for _ in reports {
        replay.step(observer);
    }
    checks.record(checks::same_digest(
        digest(reports),
        digest(replay.sim.reports()),
    ));
    Ok(())
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A measured metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run produced.
struct Outcome {
    metrics: Vec<Metric>,
    rounds: u64,
}

/// Runs measured episodes until `budget` seconds are spent, starting a new
/// one only while it is expected to fit. Each episode is checked, handed to
/// `consume` and dropped, so memory does not grow with the episode count.
fn timed_episodes(
    args: &Args,
    budget: f64,
    checks: &mut Checks,
    mut consume: impl FnMut(u64, &Episode, Timing),
) -> Result<(), String> {
    let start = Instant::now();
    for index in 0.. {
        let seed = episode_seed(args.seed, index);
        let (mut episode, timing) =
            run_episode(args.workload, seed, true, args.workload.rounds(), None)?;
        check_episode(&mut episode, checks)?;
        consume(index, &episode, timing);
        let done = (index + 1) as f64;
        if start.elapsed().as_secs_f64() * (done + 1.0) / done > budget {
            break;
        }
    }
    Ok(())
}

/// End-to-end sums over the measured episodes of an untraced run.
#[derive(Default)]
struct Totals {
    /// Rounds simulated.
    rounds: u64,
    /// Per episode: measured rounds per second, and transactions confirmed
    /// per second.
    rates: Vec<f64>,
    confirm_rates: Vec<f64>,
    setups: Vec<f64>,
    /// Per episode: the 50th and 99th percentile wall-clock confirm latency.
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    offered: u64,
    packed: u64,
    virtual_us: u64,
    /// The reports of the first episode, kept for the replay checks.
    first: Vec<RoundReport>,
}

impl Totals {
    fn add(&mut self, index: u64, episode: &Episode, timing: Timing) {
        let reports = episode.sim.reports();
        let nominal_us = nominal_round_duration(&episode.sim.config().latency).as_micros();
        let measured = &reports[1..];
        let confirmed: usize = measured.iter().map(|r| r.txs_packed).sum();
        self.rounds += reports.len() as u64;
        self.rates
            .push(timing.round_s.len() as f64 / timing.measured_s());
        self.confirm_rates
            .push(confirmed as f64 / timing.measured_s());
        self.setups.push(timing.setup_s);
        // Every closed-loop transaction waits exactly the round it is
        // offered in, so its confirm latency is that round's wall time.
        let latency: Vec<(f64, u64)> = measured
            .iter()
            .zip(&timing.round_s)
            .map(|(report, secs)| (secs * 1000.0, report.txs_packed as u64))
            .collect();
        self.p50s
            .push(stats::weighted_percentile(&latency, 0.50).unwrap_or(0.0));
        self.p99s
            .push(stats::weighted_percentile(&latency, 0.99).unwrap_or(0.0));
        for report in reports {
            self.offered += report.txs_offered as u64;
            self.packed += report.txs_packed as u64;
            self.virtual_us += nominal_us + report.timeout_delays_us;
        }
        if index == 0 {
            self.first = reports.to_vec();
        }
    }
}

/// `faulty-open`'s virtual-time episodes, run without signature checks:
/// they decide exactly as verified runs do, which [`end_to_end`] checks
/// on the run's own first episode.
fn virtual_episodes(args: &Args, checks: &mut Checks) -> Result<Vec<TrafficSnapshot>, String> {
    let mut snapshots = Vec::new();
    for index in 0..VIRTUAL_EPISODES {
        let seed = episode_seed(args.seed, 1_000 + index);
        let (mut episode, _) = run_episode(args.workload, seed, false, VIRTUAL_ROUNDS, None)?;
        check_episode(&mut episode, checks)?;
        snapshots.push(
            episode
                .sim
                .traffic()
                .ok_or("open-loop run has a traffic snapshot")?,
        );
    }
    Ok(snapshots)
}

/// The untraced run: the end-to-end metrics.
fn end_to_end(args: &Args, checks: &mut Checks) -> Result<Outcome, String> {
    let start = Instant::now();
    let virtual_runs = if args.workload.closed_loop() {
        Vec::new()
    } else {
        virtual_episodes(args, checks)?
    };
    let budget = args.seconds - start.elapsed().as_secs_f64();
    let mut totals = Totals {
        rounds: (virtual_runs.len() * VIRTUAL_ROUNDS) as u64,
        ..Totals::default()
    };
    timed_episodes(args, budget, checks, |index, episode, timing| {
        totals.add(index, episode, timing)
    })?;
    while totals.setups.len() < MIN_SETUPS {
        let seed = episode_seed(args.seed, totals.setups.len() as u64);
        let (_, timing) = run_episode(args.workload, seed, true, 1, None)?;
        totals.setups.push(timing.setup_s);
        totals.rounds += 1;
    }

    // Observing a run, or skipping its signature checks, must not change it.
    let seed = episode_seed(args.seed, 0);
    let prefix = &totals.first[..REPLAY_ROUNDS];
    check_replay(
        args.workload,
        seed,
        true,
        prefix,
        &mut Tracer::default(),
        checks,
    )?;
    if !args.workload.closed_loop() {
        let all = &totals.first;
        check_replay(args.workload, seed, false, all, &mut NoopObserver, checks)?;
    }

    let correct = checks.passed();
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let (p50_ms, p99_ms, sustained_tps, failed) = if args.workload.closed_loop() {
        (
            median(&totals.p50s),
            median(&totals.p99s),
            totals.packed as f64 / (totals.virtual_us as f64 / 1e6),
            stats::failed_share(totals.offered, totals.packed, correct),
        )
    } else {
        let mean = |f: fn(&TrafficSnapshot) -> f64| {
            virtual_runs.iter().map(f).sum::<f64>() / virtual_runs.len() as f64
        };
        let offered: u64 = virtual_runs.iter().map(|s| s.injected + s.backlog).sum();
        let confirmed: u64 = virtual_runs.iter().map(|s| s.confirmed).sum();
        let elapsed_us: u64 = virtual_runs.iter().map(|s| s.virtual_elapsed_us).sum();
        (
            mean(|s| s.p50_us as f64 / 1000.0),
            mean(|s| s.p99_us as f64 / 1000.0),
            confirmed as f64 / (elapsed_us as f64 / 1e6),
            stats::failed_share(offered, confirmed, correct),
        )
    };
    Ok(Outcome {
        metrics: vec![
            metric("rounds_per_s", median(&totals.rates), "1/s"),
            metric("confirmed_tx_per_s", median(&totals.confirm_rates), "tx/s"),
            metric("confirm_p50_ms", p50_ms, "ms"),
            metric("confirm_p99_ms", p99_ms, "ms"),
            metric("sustained_tps", sustained_tps, "tx/s"),
            metric("failed_tx_share", failed, "share"),
            metric("setup_s", median(&totals.setups), "s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
        rounds: totals.rounds,
    })
}

/// Stable per-layer name of a traffic-accounting phase.
fn net_name(phase: Phase) -> &'static str {
    match phase {
        Phase::CommitteeConfiguration => "committee-configuration",
        Phase::SemiCommitmentExchange => "semi-commitment-exchange",
        Phase::IntraCommitteeConsensus => "intra-consensus",
        Phase::InterCommitteeConsensus => "inter-consensus",
        Phase::ReputationUpdate => "reputation-update",
        Phase::KeyMemberSelection => "selection",
        Phase::BlockGeneration => "block-generation",
        Phase::Recovery => "recovery",
    }
}

/// Sums of the per-round counters the reports expose, over `reports`.
fn report_counters(reports: &[RoundReport], sums: &mut Vec<(String, f64)>) {
    let mut add = |name: String, value: f64| match sums.iter_mut().find(|(n, _)| *n == name) {
        Some((_, sum)) => *sum += value,
        None => sums.push((name, value)),
    };
    for r in reports {
        for phase in Phase::ALL {
            let total = r.metrics.phase_total(phase);
            add(
                format!("net.{}.msgs", net_name(phase)),
                total.msgs_sent as f64,
            );
            add(
                format!("net.{}.bytes", net_name(phase)),
                total.bytes_sent as f64,
            );
        }
        add("net.dropped".into(), r.net_dropped_messages as f64);
        add("net.quorum_timeouts".into(), r.quorum_timeouts as f64);
        add("net.votes_missing".into(), r.votes_missing as f64);
        add(
            "net.timeout_wait_ms".into(),
            r.timeout_delays_us as f64 / 1000.0,
        );
        add("recovery.accusations".into(), r.recovery_log.len() as f64);
        add("recovery.evictions".into(), r.evicted_leaders.len() as f64);
        add("recovery.witnesses".into(), r.witnesses as f64);
        add("recovery.skipped".into(), r.skipped_recoveries as f64);
        add(
            "traffic.censored".into(),
            r.traffic.map_or(0, |t| t.censored) as f64,
        );
        add("ledger.packed_per_round".into(), r.txs_packed as f64);
        let epoch = r.epoch_transition.as_ref();
        add(
            "epoch.transitions".into(),
            f64::from(u8::from(epoch.is_some())),
        );
        add(
            "sync.chunks".into(),
            epoch.map_or(0, |e| e.sync_chunks) as f64,
        );
        add(
            "sync.timeouts".into(),
            epoch.map_or(0, |e| e.sync_timeouts) as f64,
        );
    }
}

/// Mean µs per call of `f` over `calls` calls.
fn time_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Unit costs of the signature and VRF primitives behind inter-consensus
/// and selection time; a probe whose output does not verify fails the run.
fn crypto_probes(checks: &mut Checks) -> Vec<Metric> {
    const N: usize = 64;
    let keys: Vec<Keypair> = (0..N)
        .map(|i| Keypair::from_seed(&(i as u64).to_be_bytes()))
        .collect();
    let messages: Vec<Digest> = (0..N).map(|i| sha256(&(i as u64).to_le_bytes())).collect();
    let mut signatures = Vec::with_capacity(N);
    let sign_us = time_us(N, |i| {
        signatures.push(schnorr::sign(&keys[i].secret, messages[i].as_bytes()));
    });
    let mut valid = 0;
    let verify_us = time_us(N, |i| {
        valid += usize::from(schnorr::verify(
            &keys[i].public,
            messages[i].as_bytes(),
            &signatures[i],
        ));
    });
    let entries: Vec<BatchEntry<'_>> = (0..N)
        .map(|i| BatchEntry {
            public_key: &keys[i].public,
            message: messages[i].as_bytes(),
            signature: &signatures[i],
        })
        .collect();
    let mut batches_ok = true;
    let batch_us = time_us(4, |_| {
        batches_ok &= schnorr::batch_verify(black_box(&entries))
    }) / N as f64;
    let vrf_us = time_us(N / 2, |i| {
        black_box(vrf::evaluate(&keys[i].secret, messages[i].as_bytes()));
    });
    if valid != N || !batches_ok {
        checks.record(Err(format!(
            "crypto probe: {valid}/{N} signatures verified, batch verified {batches_ok}"
        )));
    }
    vec![
        metric("crypto.schnorr_sign_us", sign_us, "us"),
        metric("crypto.schnorr_verify_us", verify_us, "us"),
        metric("crypto.batch_verify_us_per_sig", batch_us, "us"),
        metric("crypto.vrf_evaluate_us", vrf_us, "us"),
    ]
}

/// The traced run: each episode untraced, then traced from the same seed;
/// the per-layer metrics come from the traced ones.
fn per_layer(args: &Args, checks: &mut Checks) -> Result<Outcome, String> {
    let start = Instant::now();
    let rounds_per_episode = args.workload.rounds();
    let mut tracer = Tracer::default();
    let (mut untraced_s, mut traced_s, mut measured_rounds) = (0.0, 0.0, 0usize);
    let (mut batches, mut backlog, mut episodes) = (0usize, 0.0, 0u64);
    let mut sums = Vec::new();
    loop {
        let seed = episode_seed(args.seed, episodes);
        let (plain, plain_timing) =
            run_episode(args.workload, seed, true, rounds_per_episode, None)?;
        tracer.episode = episodes;
        let (mut traced, timing) = run_episode(
            args.workload,
            seed,
            true,
            rounds_per_episode,
            Some(&mut tracer),
        )?;
        check_episode(&mut traced, checks)?;
        checks.record(checks::same_digest(
            digest(plain.sim.reports()),
            digest(traced.sim.reports()),
        ));
        untraced_s += plain_timing.measured_s();
        traced_s += timing.measured_s();
        measured_rounds += timing.round_s.len();
        batches += timing.batches;
        let reports = traced.sim.reports();
        report_counters(&reports[1..], &mut sums);
        backlog += reports
            .last()
            .and_then(|r| r.traffic)
            .map_or(0, |t| t.backlog) as f64;
        episodes += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (episodes + 1) as f64 / episodes as f64 > args.seconds {
            break;
        }
    }

    let per_round = |sum: f64| sum / measured_rounds as f64;
    let mut metrics: Vec<Metric> = tracer
        .per_round()
        .into_iter()
        .map(|(name, value)| {
            let unit = if name.ends_with(".allocs") {
                "count/round"
            } else {
                "ms/round"
            };
            metric(name, value, unit)
        })
        .collect();
    let sum_of = |name: &str| {
        sums.iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    for (name, sum) in &sums {
        let unit = if name.ends_with(".bytes") {
            "bytes/round"
        } else if name.ends_with("_ms") {
            "ms/round"
        } else {
            "count/round"
        };
        metrics.push(metric(name.clone(), per_round(*sum), unit));
    }
    let accusations = sum_of("recovery.accusations");
    metrics.push(metric(
        "recovery.eviction_ratio",
        if accusations > 0.0 {
            sum_of("recovery.evictions") / accusations
        } else {
            0.0
        },
        "ratio",
    ));
    metrics.push(metric(
        "traffic.backlog_end",
        backlog / episodes as f64,
        "count",
    ));
    metrics.push(metric(
        "executor.batches_per_round",
        per_round(batches as f64),
        "count/round",
    ));
    metrics.extend(crypto_probes(checks));
    // The share of untraced throughput that tracing costs.
    metrics.push(metric(
        "trace.overhead",
        1.0 - untraced_s / traced_s,
        "share",
    ));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, tracer.to_json(args.workload.name(), args.seed)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok(Outcome {
        metrics,
        rounds: 2 * episodes * rounds_per_episode as u64,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let outcome = if args.trace {
        per_layer(&args, &mut checks)
    } else {
        end_to_end(&args, &mut checks)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for failure in &checks.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = checks.passed();
    let mut json = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        println!("{:40} {:>16.4} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.rounds,
        if correct { 0 } else { outcome.rounds }
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
