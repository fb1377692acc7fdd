//! The untraced run: whole rounds of the five miners, timed one by one,
//! then every output checked apart from the program.

use crate::catalog::END_TO_END;
use crate::checks::{verify, Reference};
use crate::miners::{direct, run_governed, with_armstrong, Kind, Output};
use crate::report::{mean, median, peak_rss_mb, Metric};
use crate::scratch::ScratchDir;
use crate::spans::Tracer;
use crate::workload::{setup, Workload, EPSILON};
use depminer_engine::MinerRegistry;
use depminer_observe::profile::validate_profile_json;
use std::time::{Duration, Instant};

/// What a run reports.
pub struct Outcome {
    /// No operation failed, and every output passed its checks.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or emitted a wrong output.
    pub failed: u64,
    /// The metrics, in catalog order.
    pub metrics: Vec<Metric>,
}

/// The span at the root of each miner's profile.
pub fn profile_root(kind: Kind) -> &'static str {
    match kind {
        Kind::DepMiner | Kind::DepMiner2 => "depminer",
        Kind::Tane => "tane",
        Kind::Fdep => "fdep",
        Kind::Approx => "approx-levels",
    }
}

/// One operation: a miner's direct entry point (Dep-Miner then builds its
/// Armstrong relation), or a governed run whose profile must validate.
/// Returns the output and the measured time.
fn operation(
    w: Workload,
    kind: Kind,
    r: &depminer_relation::Relation,
    scratch: &ScratchDir,
    registry: &MinerRegistry,
) -> Result<(Output, Duration), String> {
    if !w.governed() {
        let t0 = Instant::now();
        let out = with_armstrong(direct(kind, r, &mut Tracer::off()), r)?;
        return Ok((out, t0.elapsed()));
    }
    let dir = scratch.fresh_subdir(kind.name())?;
    let t0 = Instant::now();
    let governed = run_governed(kind, r, &dir, registry, &mut Tracer::off())?;
    let elapsed = t0.elapsed();
    let json = governed.profile.snapshot().to_json();
    validate_profile_json(&json, &[profile_root(kind)])
        .map_err(|e| format!("{} profile: {e}", kind.name()))?;
    Ok((governed.output, elapsed))
}

/// Runs whole rounds until the next one would end after `seconds`
/// (always at least one), then checks the outputs. A round runs each
/// miner on each of the workload's relations; a miner's figure for the
/// round is its mean time per relation, and the metric is the mean of
/// those figures over the rounds. On shared hardware the speed of
/// memory-bound code drifts in stretches of about ten seconds; the median
/// of a few rounds jumps between the slow and the fast level, while the
/// mean follows the share of time spent in each, so it is the steadier
/// figure from one run to the next.
///
/// The timed rounds keep only a digest of each output, and the peak
/// resident set is read when they end, so it is the miners' peak over
/// the relations, not the checks'. The checks then run each miner once
/// more, untimed, on each relation: its output must have the digest of
/// the timed rounds and pass the independent checks. Any failed
/// operation makes the run incorrect, and a miner with no whole round
/// reports no time.
pub fn run(w: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let scratch = ScratchDir::new()?;
    let built = setup(w, seed, &scratch)?;
    let relations = &built.relations;
    let registry = MinerRegistry::standard();
    let (kinds, rels) = (Kind::ALL.len(), relations.len());
    let mut per_round: Vec<Vec<f64>> = vec![Vec::new(); kinds];
    let mut digests: Vec<Vec<Option<u64>>> = vec![vec![None; rels]; kinds];
    let mut passed = vec![vec![0u64; rels]; kinds];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    loop {
        let round = Instant::now();
        for (i, &kind) in Kind::ALL.iter().enumerate() {
            let mut total = Duration::ZERO;
            let mut whole = true;
            for (k, r) in relations.iter().enumerate() {
                attempted += 1;
                let outcome = operation(w, kind, r, &scratch, &registry)
                    .map(|(out, elapsed)| (out.digest(), elapsed));
                let verdict = outcome.and_then(|(digest, elapsed)| {
                    total += elapsed;
                    match digests[i][k] {
                        None => digests[i][k] = Some(digest),
                        Some(want) if want != digest => {
                            return Err("output differs from its first round".to_string())
                        }
                        Some(_) => {}
                    }
                    Ok(())
                });
                match verdict {
                    Ok(()) => passed[i][k] += 1,
                    Err(e) => {
                        eprintln!("{}: {e}", kind.name());
                        failed += 1;
                        correct = false;
                        whole = false;
                    }
                }
            }
            if whole {
                per_round[i].push(total.as_secs_f64() / rels as f64);
            }
        }
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let peak_rss = peak_rss_mb();

    for (k, r) in relations.iter().enumerate() {
        let reference = Reference::new(r);
        let approx_reference = w.governed().then(|| {
            depminer_tane::approximate_fds(r, EPSILON)
                .iter()
                .map(|f| (f.fd.lhs.bits(), f.fd.rhs, f.error))
                .collect::<Vec<_>>()
        });
        let mut outputs: Vec<(Kind, Output)> = Vec::new();
        for (i, &kind) in Kind::ALL.iter().enumerate() {
            let Some(want) = digests[i][k] else {
                continue; // every timed operation failed, and counted
            };
            let again = operation(w, kind, r, &scratch, &registry).and_then(|(out, _)| {
                if out.digest() == want {
                    Ok(out)
                } else {
                    Err("output differs from the timed rounds'".to_string())
                }
            });
            match again {
                Ok(out) => outputs.push((kind, out)),
                Err(e) => {
                    eprintln!("{}: check run: {e}", kind.name());
                    failed += passed[i][k];
                    correct = false;
                }
            }
        }
        let outputs: Vec<(Kind, &Output)> = outputs.iter().map(|(k, o)| (*k, o)).collect();
        for (kind, verdict) in verify(r, &reference, &outputs, approx_reference.as_deref(), seed) {
            if let Err(e) = verdict {
                eprintln!("{}: check failed: {e}", kind.name());
                let i = Kind::ALL
                    .iter()
                    .position(|&x| x == kind)
                    .expect("a listed miner");
                failed += passed[i][k];
                correct = false;
            }
        }
    }

    let setup_secs: Vec<f64> = built.times.iter().map(Duration::as_secs_f64).collect();
    let mut values = vec![Some(median(&setup_secs))];
    values.extend(per_round.iter().map(|t| (!t.is_empty()).then(|| mean(t))));
    values.push(peak_rss);
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .filter_map(|(&(name, unit), value)| {
            Some(Metric {
                name: name.to_string(),
                value: value?,
                unit,
            })
        })
        .collect();
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}
