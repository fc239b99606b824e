//! Per-phase wall-clock profile of the round engine at the standard 8x16
//! bench configuration: runs a few rounds with a timing [`RoundObserver`]
//! attached and prints where the round's time goes. This is the tool that
//! located the data-plane hot spots (inter-consensus message churn, latency
//! DRBG instantiation, signature generation) — keep it handy before chasing
//! the next bottleneck.
//!
//! Run with `cargo run --release -p cycledger-bench --bin phase_profile`;
//! flags: `--workers N` (default 4), `--rounds N` (default 5),
//! `--verify on|off` (default on — the tracked, verified config).
use std::collections::BTreeMap;
use std::time::Instant;

use cycledger_bench::bench_config;
use cycledger_protocol::engine::{RoundContext, RoundObserver};
use cycledger_protocol::Simulation;

#[derive(Default)]
struct Prof {
    start: Option<Instant>,
    totals: BTreeMap<&'static str, f64>,
}

impl RoundObserver for Prof {
    fn on_phase_start(&mut self, _phase: &'static str, _ctx: &RoundContext<'_>) {
        self.start = Some(Instant::now());
    }
    fn on_phase_end(&mut self, phase: &'static str, _ctx: &RoundContext<'_>) {
        let dt = self.start.take().unwrap().elapsed().as_secs_f64();
        *self.totals.entry(phase).or_default() += dt;
    }
}

/// Profiles `rounds` rounds and returns (total wall seconds, per-phase
/// seconds). The warm-up round is excluded from both.
fn profile(workers: usize, verify: bool, rounds: u64) -> (f64, Prof) {
    let mut config = bench_config(8, 16, 4242);
    config.worker_threads = workers;
    config.verify_signatures = verify;
    let mut sim = Simulation::new(config).unwrap();
    sim.run(1);
    let mut prof = Prof::default();
    let t = Instant::now();
    for _ in 0..rounds {
        sim.run_round_observed(&mut prof);
    }
    (t.elapsed().as_secs_f64(), prof)
}

fn report(label: &str, total: f64, prof: &Prof, rounds: u64) {
    println!("== {label}: {total:.3}s for {rounds} rounds ==");
    let mut in_phases = 0.0;
    for (k, v) in &prof.totals {
        println!("{k:28} {v:7.3}s  {:5.1}%", v / total * 100.0);
        in_phases += v;
    }
    println!(
        "outside phases               {:7.3}s  {:5.1}%",
        total - in_phases,
        (total - in_phases) / total * 100.0
    );
}

fn main() {
    let mut workers = 4usize;
    let mut rounds = 5u64;
    let mut verify = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--workers N")
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--rounds N")
            }
            "--verify" => match args.next().as_deref() {
                Some("on") => verify = true,
                Some("off") => verify = false,
                _ => panic!("--verify on|off"),
            },
            other => panic!("unknown flag {other}"),
        }
    }

    let (total, prof) = profile(workers, verify, rounds);
    let label = format!(
        "{workers} workers, verify {}",
        if verify { "on" } else { "off" }
    );
    report(&label, total, &prof, rounds);
}
