//! The workloads and their set-up: synthetic §5.2 relations made from the
//! seed given on the command line.

use crate::scratch::ScratchDir;
use depminer_relation::csv::{read_csv_file, write_csv_file};
use depminer_relation::{Relation, SyntheticConfig};
use std::time::{Duration, Instant};

/// Error threshold (g₃) of approximate TANE on every workload.
pub const EPSILON: f64 = 0.01;

/// A run builds its relations at least this many times, and `setup_s` is
/// the median build time.
pub const SETUP_REPS: usize = 5;

/// A run goes on building its relations until the builds have taken this
/// long in all, so that a build of a few milliseconds is timed some
/// hundred times.
pub const SETUP_SECONDS: f64 = 1.0;

/// One of the benchmark's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// |R| = 20, |r| = 50 000: agree sets dominate Dep-Miner.
    Tall,
    /// |R| = 40, |r| = 2 000: levelwise transversals dominate Dep-Miner.
    Wide,
    /// A `tall`-shaped relation read back from CSV, mined through the
    /// engine with a profile, per-boundary frames and a level cap.
    Governed,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [Workload::Tall, Workload::Wide, Workload::Governed];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tall => "tall",
            Workload::Wide => "wide",
            Workload::Governed => "governed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many relations of its shape a run mines. `wide` mines several:
    /// its miners' work (the number of FDs and transversal candidates)
    /// varies by a few percent from one 2 000-tuple relation to the next,
    /// and averaging over four relations keeps that out of the run's
    /// figures.
    pub fn relations(self) -> usize {
        match self {
            Workload::Wide => 4,
            Workload::Tall | Workload::Governed => 1,
        }
    }

    /// The §5.2 generator parameters of the run's `k`-th relation. Each
    /// workload salts the seed differently, so `governed` never mines the
    /// relation `tall` mines under the same seed.
    pub fn config(self, seed: u64, k: usize) -> SyntheticConfig {
        let (n_attrs, n_rows, salt) = match self {
            Workload::Tall => (20, 50_000, 0x7a11),
            Workload::Wide => (40, 2_000, 0x817e),
            Workload::Governed => (20, 50_000, 0x6073),
        };
        SyntheticConfig {
            n_attrs,
            n_rows,
            correlation: 0.5,
            seed: mix(mix(seed ^ salt) ^ k as u64),
        }
    }

    /// Whether the workload mines through the engine with frames armed.
    pub fn governed(self) -> bool {
        self == Workload::Governed
    }
}

/// SplitMix64 finaliser: spreads neighbouring seeds apart.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What set-up produced: the relations to mine and the time each build
/// took.
pub struct Setup {
    /// The relations every miner runs on.
    pub relations: Vec<Relation>,
    /// Wall time of each build of all of them.
    pub times: Vec<Duration>,
}

/// Builds the workload's relations [`SETUP_REPS`] times or more, until
/// the builds have taken [`SETUP_SECONDS`] in all. On `governed`
/// each build also writes the relation as CSV and parses it back, and the
/// parsed relation must equal the generated one.
pub fn setup(w: Workload, seed: u64, scratch: &ScratchDir) -> Result<Setup, String> {
    let csv = scratch.path().join("relation.csv");
    let mut times: Vec<Duration> = Vec::new();
    let mut relations = Vec::new();
    while times.len() < SETUP_REPS || times.iter().sum::<Duration>().as_secs_f64() < SETUP_SECONDS {
        relations.clear();
        let mut checks = Vec::new();
        let t0 = Instant::now();
        for k in 0..w.relations() {
            let generated = w
                .config(seed, k)
                .generate()
                .map_err(|e| format!("generate: {e}"))?;
            if w.governed() {
                write_csv_file(&generated, &csv).map_err(|e| format!("write csv: {e}"))?;
                let parsed = read_csv_file(&csv).map_err(|e| format!("read csv: {e}"))?;
                relations.push(parsed);
                checks.push(generated);
            } else {
                relations.push(generated);
            }
        }
        times.push(t0.elapsed());
        if checks
            .iter()
            .zip(&relations)
            .any(|(generated, parsed)| generated != parsed)
        {
            return Err("the relation read back from CSV differs from the one written".into());
        }
    }
    let _ = std::fs::remove_file(&csv);
    Ok(Setup { relations, times })
}
