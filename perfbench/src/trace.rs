//! The traced run: the same workload, with every layer called from here
//! inside a span, and the layer counts read back from the program's
//! public results and cancel tokens.

use crate::catalog::PER_LAYER;
use crate::checks::{verify, Reference};
use crate::miners::{direct, emitted, exact_output, masks, run_governed, Kind, Output};
use crate::report::{median, Metric};
use crate::run::{profile_root, Outcome};
use crate::scratch::{output_dir, ScratchDir};
use crate::spans::Tracer;
use crate::workload::{setup, Workload};
use depminer_core::{
    agree_sets_governed, cmax_sets_governed, fd_output, left_hand_sides_governed,
    real_world_armstrong, AgreeSetStrategy, TransversalEngine,
};
use depminer_engine::{MinerRegistry, Session, SessionCtx};
use depminer_govern::snapshot::{atomic_write, Snapshot};
use depminer_govern::{Budget, CancelToken, Obs};
use depminer_observe::profile::validate_profile_json;
use depminer_parallel::Parallelism;
use depminer_relation::csv::{read_csv_file, write_csv_file};
use depminer_relation::{AttrSet, Relation, StrippedPartitionDb};
use depminer_tane::{Tane, TaneCheckpoint};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one traced round counted and how its operations went.
#[derive(Default)]
struct Round {
    counts: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
    /// The first round's outputs, for the independent checks: Dep-Miner
    /// stage by stage (with its Armstrong relation), then every miner's
    /// direct output.
    kept: Option<(Output, Vec<Output>)>,
}

impl Round {
    fn count(&mut self, name: &'static str, value: usize) {
        *self.counts.entry(name).or_insert(0.0) += value as f64;
    }

    /// Records one operation and whether its check passed.
    fn op(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

fn same<T: PartialEq>(got: &T, want: &T, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} differs"))
    }
}

/// The fixed inputs of every traced round.
struct Ctx<'a> {
    r: &'a Relation,
    registry: MinerRegistry,
    scratch: ScratchDir,
    reference: Reference,
}

/// One traced round: every layer, once.
fn round(ctx: &Ctx, tr: &mut Tracer, index: usize) -> Result<Round, String> {
    let r = ctx.r;
    let mut rd = Round::default();

    // relation: CSV parse and the stripped partition database.
    let csv = ctx.scratch.path().join("trace.csv");
    write_csv_file(r, &csv).map_err(|e| format!("write csv: {e}"))?;
    rd.count(
        "relation.csv_bytes",
        std::fs::metadata(&csv).map_or(0, |m| m.len() as usize),
    );
    let parsed = tr.span("relation.csv_parse", |_| read_csv_file(&csv));
    rd.op(
        "csv round trip",
        parsed
            .map_err(|e| e.to_string())
            .and_then(|p| same(&p, r, "relation read back from CSV")),
    );
    let db = tr.span("relation.spdb", |_| {
        StrippedPartitionDb::from_relation_with(r, Parallelism::Auto)
    });
    rd.count(
        "relation.spdb_bytes",
        db.partitions().iter().map(|p| p.heap_bytes()).sum(),
    );
    rd.count("agree.maximal_classes", db.maximal_classes().len());

    // core: Dep-Miner (Algorithm 2) stage by stage.
    let token = CancelToken::unlimited();
    let (ag, _) = tr.span("agree.alg2", |_| {
        agree_sets_governed(
            &db,
            AgreeSetStrategy::Couples { chunk_size: None },
            Parallelism::Auto,
            &token,
        )
    });
    rd.count("agree.couples", token.couples() as usize);
    rd.count("agree.sets", ag.sets.len());
    let ms = tr
        .span("maxset.cmax", |_| {
            cmax_sets_governed(&ag, Parallelism::Auto, &token)
        })
        .map_err(|e| format!("max sets: {e}"))?;
    let max_union = ms.max_union();
    rd.count("maxset.max_sets", max_union.len());
    rd.count("maxset.cmax_sets", ms.cmax.iter().map(Vec::len).sum());
    let lhs_token = CancelToken::unlimited();
    let (families, _) = tr.span("lhs.transversals", |_| {
        left_hand_sides_governed(
            &ms,
            TransversalEngine::Levelwise,
            Parallelism::Auto,
            &lhs_token,
        )
    });
    rd.count("lhs.candidates", lhs_token.candidates() as usize);
    let lhs: Vec<Vec<AttrSet>> = families
        .iter()
        .map(|f| f.clone().ok_or("an unlimited transversal search stopped"))
        .collect::<Result<_, _>>()?;
    let fds = tr.span("lhs.fd_output", |_| fd_output(&lhs));
    rd.count("lhs.fds", fds.len());
    let armstrong = tr
        .span("armstrong.build", |_| real_world_armstrong(r, &max_union))
        .map_err(|e| format!("Armstrong relation: {e}"))?;
    rd.count("armstrong.rows", armstrong.len());
    let ag_masks: Vec<u128> = ag.sets.iter().map(|s| s.bits()).collect();
    rd.op(
        "agree sets against the independent ones",
        same(&ag_masks, &ctx.reference.agree.sets, "ag(r)").and_then(|()| {
            same(
                &max_union.len(),
                &ctx.reference.max_union_len(),
                "|MAX(dep(r))|",
            )
        }),
    );
    let t3 = CancelToken::unlimited();
    let (ag3, _) = tr.span("agree.alg3", |_| {
        agree_sets_governed(
            &db,
            AgreeSetStrategy::EquivalenceClasses,
            Parallelism::Auto,
            &t3,
        )
    });
    rd.op("Algorithm 3 agree sets", same(&ag3.sets, &ag.sets, "ag(r)"));

    // Direct governed entry points on unlimited tokens.
    let direct: Vec<Output> = tr.span("engine.direct", |tr| {
        Kind::ALL
            .iter()
            .map(|&kind| {
                let d = direct(kind, r, tr);
                for &(name, value) in &d.counts {
                    rd.count(name, value);
                }
                d.output
            })
            .collect()
    });
    rd.op(
        "stage-by-stage Dep-Miner against one mine call",
        same(
            &masks(&fds),
            &direct[0].exact().unwrap_or_default().to_vec(),
            "FD bytes",
        ),
    );

    // engine: the same miners through Session::run.
    let via_session: Vec<Output> = tr.span("engine.session", |_| {
        Kind::ALL
            .iter()
            .map(|&kind| {
                let session =
                    Session::new(SessionCtx::new(r, Budget::unlimited(), Obs::none(), None));
                emitted(
                    &session
                        .run(kind.engine_miner(&ctx.registry).as_ref())
                        .result,
                )
            })
            .collect()
    });
    for (i, &kind) in Kind::ALL.iter().enumerate() {
        rd.op(
            &format!("{} through the engine", kind.name()),
            same(&via_session[i], &direct[i], "output"),
        );
    }

    // govern + observe: trip, frame, resume, profile export.
    for (i, &kind) in Kind::ALL.iter().enumerate() {
        let dir = ctx.scratch.fresh_subdir(kind.name())?;
        let verdict = run_governed(kind, r, &dir, &ctx.registry, tr).and_then(|g| {
            rd.count("govern.frames_written", g.frames_written as usize);
            if let Some(frame) = &g.frame {
                rd.count("govern.frame_bytes", frame.len());
                let copy = dir.join("rewritten.snap");
                tr.span("govern.frame_write", |_| atomic_write(&copy, frame))
                    .map_err(|e| format!("atomic_write: {e}"))?;
                if kind == Kind::Tane {
                    let snap = Snapshot::decode(frame).map_err(|e| e.to_string())?;
                    let cp =
                        TaneCheckpoint::decode_payload(&snap.payload).map_err(|e| e.to_string())?;
                    rd.count("tane.resume_frontier", cp.frontier.len());
                }
            }
            let json = tr.span("observe.export", |_| g.profile.snapshot().to_json());
            rd.count("observe.profile_bytes", json.len());
            validate_profile_json(&json, &[profile_root(kind)])
                .map_err(|e| format!("profile: {e}"))?;
            match (&g.output, &direct[i]) {
                (Output::Exact { fds, .. }, Output::Exact { fds: want, .. }) => {
                    same(fds, want, "resumed cover")
                }
                (got, want) => same(got, want, "resumed approximate cover"),
            }
        });
        rd.op(&format!("governed {}", kind.name()), verdict);
    }

    // parallel: the same layer calls at two threads.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    rd.count("parallel.threads", threads);
    let par = Parallelism::Threads(threads);
    let unlimited = CancelToken::unlimited();
    let (ag_t2, _) = tr.span("parallel.agree_t2", |_| {
        agree_sets_governed(
            &db,
            AgreeSetStrategy::Couples { chunk_size: None },
            par,
            &unlimited,
        )
    });
    rd.op(
        "agree sets at two threads",
        same(&ag_t2.sets, &ag.sets, "ag(r)"),
    );
    let (families_t2, _) = tr.span("parallel.transversals_t2", |_| {
        left_hand_sides_governed(&ms, TransversalEngine::Levelwise, par, &unlimited)
    });
    rd.op(
        "transversals at two threads",
        same(&families_t2, &families, "lhs families"),
    );
    let tane_t2 = tr.span("parallel.tane_t2", |_| {
        Tane::new().with_parallelism(par).run_db(&db)
    });
    rd.op(
        "TANE at two threads",
        same(&exact_output(&tane_t2.fds), &direct[2], "cover"),
    );

    if index == 0 {
        let stagewise = Output::Exact {
            fds: masks(&fds),
            armstrong: Some(armstrong),
        };
        rd.kept = Some((stagewise, direct));
    }
    Ok(rd)
}

/// Runs whole traced rounds until the next one would end after `seconds`
/// (always at least one), writes the spans under the output directory and
/// reports every per-layer metric: times as the median over rounds,
/// counts from the first round.
pub fn run(w: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let scratch = ScratchDir::new()?;
    let built = setup(w, seed, &scratch)?;
    // Layer figures come from the workload's first relation.
    let r = &built.relations[0];
    let ctx = Ctx {
        r,
        registry: MinerRegistry::standard(),
        reference: Reference::new(r),
        scratch,
    };
    let mut tr = Tracer::on();
    let mut rounds: Vec<Round> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    loop {
        tr.set_round(rounds.len());
        let t0 = Instant::now();
        rounds.push(round(&ctx, &mut tr, rounds.len())?);
        walls.push(t0.elapsed().as_secs_f64());
        if start.elapsed() + t0.elapsed() > budget {
            break;
        }
    }
    let (stagewise, direct) = rounds[0]
        .kept
        .take()
        .expect("the first round keeps its outputs");
    let mut outputs: Vec<(Kind, &Output)> = vec![(Kind::DepMiner, &stagewise)];
    outputs.extend(Kind::ALL.iter().copied().zip(direct.iter()).skip(1));
    for (kind, verdict) in verify(r, &ctx.reference, &outputs, None, seed) {
        rounds[0].op(&format!("independent check of {}", kind.name()), verdict);
    }
    let spans = output_dir().join(format!("spans-{}-{seed}.json", w.name()));
    tr.write_json(&spans, w.name(), seed)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    eprintln!("spans written to {}", spans.display());

    let failures: Vec<&String> = rounds.iter().flat_map(|rd| &rd.failures).collect();
    for f in &failures {
        eprintln!("{f}");
    }
    let first = &rounds[0];
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.total_s" => median(&walls),
                "trace.rounds" => rounds.len() as f64,
                _ => match name.strip_suffix("_s") {
                    Some(span) => {
                        let per_round: Vec<f64> =
                            (0..rounds.len()).map(|k| tr.seconds(span, k)).collect();
                        median(&per_round)
                    }
                    None => first.counts.get(name).copied().unwrap_or(0.0),
                },
            };
            Metric {
                name: name.to_string(),
                value,
                unit,
            }
        })
        .collect();
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: rounds.iter().map(|rd| rd.attempted).sum(),
        failed: failures.len() as u64,
        metrics,
    })
}
