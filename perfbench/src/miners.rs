//! One operation per miner: a plain mine through the miner's direct
//! entry point, or, on `governed`, a mine through the engine that trips a
//! level cap, writes a frame and resumes from it.

use crate::oracle::{ApproxFd, ExactFd};
use crate::spans::Tracer;
use crate::workload::EPSILON;
use depminer_core::{DepMiner, MiningResult};
use depminer_engine::{ApproxMiner, Emitted, Miner, MinerRegistry, Session, SessionCtx};
use depminer_fdep::Fdep;
use depminer_fdtheory::Fd;
use depminer_govern::snapshot::read_snapshot;
use depminer_govern::{Budget, CancelToken, Obs, Resource, SnapshotPolicy};
use depminer_observe::profile::ProfileSink;
use depminer_relation::Relation;
use depminer_tane::{approximate_fds_governed, Tane};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

/// The five miners every workload runs, in round order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dep-Miner with Algorithm 2 agree sets.
    DepMiner,
    /// Dep-Miner with Algorithm 3 agree sets.
    DepMiner2,
    /// Exact TANE.
    Tane,
    /// FDEP.
    Fdep,
    /// Approximate TANE at [`EPSILON`].
    Approx,
}

impl Kind {
    /// Every miner, in round order.
    pub const ALL: [Kind; 5] = [
        Kind::DepMiner,
        Kind::DepMiner2,
        Kind::Tane,
        Kind::Fdep,
        Kind::Approx,
    ];

    /// The metric prefix, which is also the CLI's `--algo` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DepMiner => "depminer",
            Kind::DepMiner2 => "depminer2",
            Kind::Tane => "tane",
            Kind::Fdep => "fdep",
            Kind::Approx => "approx",
        }
    }

    /// The lattice level a governed run may not enter, so that it trips
    /// right after a written boundary; `None` for FDEP, whose inversion
    /// has no count-based trip point.
    pub fn level_cap(self) -> Option<usize> {
        match self {
            Kind::DepMiner | Kind::DepMiner2 | Kind::Approx => Some(1),
            Kind::Tane => Some(2),
            Kind::Fdep => None,
        }
    }

    /// The miner as the engine runs it.
    pub fn engine_miner(self, registry: &MinerRegistry) -> Box<dyn Miner> {
        match self {
            Kind::Approx => Box::new(ApproxMiner { epsilon: EPSILON }),
            other => registry
                .by_cli_name(other.name())
                .expect("every exact miner is registered")
                .instantiate(),
        }
    }

    /// Span names of a governed run's trip and resume (FDEP's one
    /// uninterrupted run uses the first).
    fn spans(self) -> (&'static str, &'static str) {
        match self {
            Kind::DepMiner => ("depminer.trip", "depminer.resume"),
            Kind::DepMiner2 => ("depminer2.trip", "depminer2.resume"),
            Kind::Tane => ("tane.trip", "tane.resume"),
            Kind::Fdep => ("fdep.armed", "fdep.armed"),
            Kind::Approx => ("approx.trip", "approx.resume"),
        }
    }
}

/// What one operation emitted.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// An exact cover, plus the real-world Armstrong relation when the
    /// operation builds one.
    Exact {
        /// The minimal FDs, in emission order.
        fds: Vec<ExactFd>,
        /// The Armstrong relation (plain Dep-Miner runs only).
        armstrong: Option<Relation>,
    },
    /// Approximate FDs with their reported g₃.
    Approx(Vec<ApproxFd>),
}

impl Output {
    /// A 64-bit digest of everything the output holds, in emission order:
    /// equal outputs have equal digests. A run keeps this, not the output,
    /// from one round to the next.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        match self {
            Output::Exact { fds, armstrong } => {
                0u8.hash(&mut h);
                fds.hash(&mut h);
                if let Some(s) = armstrong {
                    (s.arity(), s.len()).hash(&mut h);
                    for t in 0..s.len() {
                        for a in 0..s.arity() {
                            s.value(t, a).hash(&mut h);
                        }
                    }
                }
            }
            Output::Approx(fds) => {
                1u8.hash(&mut h);
                fds.len().hash(&mut h);
                for &(x, a, g3) in fds {
                    (x, a, g3.to_bits()).hash(&mut h);
                }
            }
        }
        h.finish()
    }

    /// The exact cover, if any.
    pub fn exact(&self) -> Option<&[ExactFd]> {
        match self {
            Output::Exact { fds, .. } => Some(fds),
            Output::Approx(_) => None,
        }
    }
}

/// 64-bit FNV-1a over the bytes fed to it.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// FDs as plain masks.
pub fn masks(fds: &[Fd]) -> Vec<ExactFd> {
    fds.iter().map(|f| (f.lhs.bits(), f.rhs)).collect()
}

/// An exact cover without an Armstrong relation.
pub fn exact_output(fds: &[Fd]) -> Output {
    Output::Exact {
        fds: masks(fds),
        armstrong: None,
    }
}

/// Approximate FDs with their reported g₃.
pub fn approx_output(fds: &[depminer_tane::ApproxFd]) -> Output {
    Output::Approx(
        fds.iter()
            .map(|f| (f.fd.lhs.bits(), f.fd.rhs, f.error))
            .collect(),
    )
}

/// What the engine emitted.
pub fn emitted(e: &Emitted) -> Output {
    match e {
        Emitted::Fds(fds) => exact_output(fds),
        Emitted::ApproxFds { fds, .. } => approx_output(fds),
    }
}

/// What a miner's direct governed entry point returned.
pub struct Direct {
    /// The cover it emitted.
    pub output: Output,
    /// Layer counts read back from its result and its token.
    pub counts: Vec<(&'static str, usize)>,
    /// Dep-Miner's whole result, from which the Armstrong relation is
    /// built; `None` for the other miners.
    pub mined: Option<MiningResult>,
}

/// A miner's direct governed entry point on an unlimited token, inside a
/// span named `direct.<miner>`. Both runs call this: the untraced one
/// with a disabled recorder.
pub fn direct(kind: Kind, r: &Relation, tr: &mut Tracer) -> Direct {
    let token = CancelToken::unlimited();
    let mut counts = Vec::new();
    let mut mined = None;
    let output = match kind {
        Kind::DepMiner | Kind::DepMiner2 => {
            let (name, miner) = if kind == Kind::DepMiner {
                ("direct.depminer", DepMiner::algorithm_2(None))
            } else {
                ("direct.depminer2", DepMiner::algorithm_3())
            };
            let res = tr.span(name, |_| miner.mine_with_token(r, &token).result);
            let output = exact_output(&res.fds);
            mined = Some(res);
            output
        }
        Kind::Tane => {
            let res = tr.span("direct.tane", |_| {
                Tane::new().run_with_token(r, &token).result
            });
            counts.push(("tane.levels", res.stats.levels));
            counts.push(("tane.candidates", res.stats.candidates));
            counts.push(("tane.partition_products", res.stats.partition_products));
            exact_output(&res.fds)
        }
        Kind::Fdep => {
            let res = tr.span("direct.fdep", |_| {
                Fdep::new().run_with_token(r, &token).result
            });
            counts.push(("fdep.negative_cover_size", res.negative_cover_size));
            counts.push(("fdep.couples", token.couples() as usize));
            exact_output(&res.fds)
        }
        Kind::Approx => {
            let res = tr.span("direct.approx", |_| {
                approximate_fds_governed(r, EPSILON, &token).result
            });
            counts.push(("approx.fds", res.len()));
            approx_output(&res)
        }
    };
    Direct {
        output,
        counts,
        mined,
    }
}

/// The Armstrong step after a direct Dep-Miner run: the real-world
/// Armstrong relation joins the emitted cover. Other miners' outputs
/// pass through unchanged.
pub fn with_armstrong(d: Direct, r: &Relation) -> Result<Output, String> {
    match (d.mined, d.output) {
        (Some(mined), Output::Exact { fds, .. }) => {
            let armstrong = mined
                .real_world_armstrong(r)
                .map_err(|e| format!("Armstrong relation: {e}"))?;
            Ok(Output::Exact {
                fds,
                armstrong: Some(armstrong),
            })
        }
        (_, output) => Ok(output),
    }
}

/// What a governed operation left besides its output.
pub struct Governed {
    /// The resumed (or, for FDEP, uninterrupted) output.
    pub output: Output,
    /// The profile sink both sessions reported to.
    pub profile: Arc<ProfileSink>,
    /// Frames the tripped (or FDEP's) session wrote.
    pub frames_written: u64,
    /// The frame read back for the resume, if any.
    pub frame: Option<Vec<u8>>,
}

/// A governed operation, as the CLI stack runs it: `Session` over the
/// registry's miner with a profile observer and a frame at every clean
/// boundary. Miners with a level cap must trip at it after writing a
/// frame; the frame is read back and the registry's miner for it resumes
/// to completion. FDEP runs once, uninterrupted, frames armed.
pub fn run_governed(
    kind: Kind,
    r: &Relation,
    dir: &Path,
    registry: &MinerRegistry,
    tr: &mut Tracer,
) -> Result<Governed, String> {
    let sink = Arc::new(ProfileSink::new());
    let obs = Obs::new(sink.clone());
    let policy = || Some(SnapshotPolicy::new(dir).every_boundaries(1));
    let miner = kind.engine_miner(registry);
    let (trip_span, resume_span) = kind.spans();
    let Some(cap) = kind.level_cap() else {
        let session = Session::new(SessionCtx::new(r, Budget::unlimited(), obs, policy()));
        let outcome = tr.span(trip_span, |_| session.run(miner.as_ref()));
        if let Some(why) = &outcome.interrupted {
            return Err(format!("{} stopped early: {why}", kind.name()));
        }
        return Ok(Governed {
            output: emitted(&outcome.result),
            profile: sink,
            frames_written: written(&session),
            frame: None,
        });
    };

    let budget = Budget::unlimited().with_max_level(cap);
    let session = Session::new(SessionCtx::new(r, budget, obs.clone(), policy()));
    let tripped = tr.span(trip_span, |_| session.run(miner.as_ref()));
    match &tripped.interrupted {
        Some(why) if why.resource == Resource::LatticeLevel => {}
        Some(why) => return Err(format!("{} tripped on the wrong limit: {why}", kind.name())),
        None => return Err(format!("{} did not trip at level cap {cap}", kind.name())),
    }
    let frames_written = written(&session);
    if frames_written == 0 {
        return Err(format!("{} tripped without writing a frame", kind.name()));
    }
    let path = dir.join(format!("{}.snap", miner.algo_id()));
    let (snap, frame) = tr.span("govern.frame_read", |_| {
        let frame = std::fs::read(&path);
        (read_snapshot(&path), frame)
    });
    let snap = snap.map_err(|e| format!("{}: cannot read its frame: {e}", kind.name()))?;
    let resumed = tr.span(resume_span, |_| -> Result<_, String> {
        let again = registry
            .from_frame(&snap)
            .map_err(|e| format!("registry refused the frame: {e}"))?;
        let session = Session::new(SessionCtx::new(r, Budget::unlimited(), obs, policy()));
        session
            .resume(again.as_ref(), &snap)
            .map_err(|e| format!("resume refused: {e}"))
    })?;
    if let Some(why) = &resumed.interrupted {
        return Err(format!("{} resume stopped early: {why}", kind.name()));
    }
    Ok(Governed {
        output: emitted(&resumed.result),
        profile: sink,
        frames_written,
        frame: frame.ok(),
    })
}

fn written(session: &Session) -> u64 {
    session
        .ctx()
        .token()
        .snapshot_policy()
        .map_or(0, |p| p.written())
}
