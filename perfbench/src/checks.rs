//! Applies the independent checks of [`crate::oracle`] to what a run's
//! operations emitted.

use crate::miners::{Kind, Output};
use crate::oracle::{
    check_approx, check_armstrong, check_cover, cover_bytes, max_union, AgreeInfo, ApproxFd, Mask,
    Rng, Table,
};
use crate::workload::EPSILON;
use depminer_relation::Relation;

/// How many FDs, maximal sets and random `(X, A)` probes each check
/// samples.
pub const SAMPLES: usize = 40;

/// Facts about the relation computed once, apart from the miners.
pub struct Reference {
    /// The raw column codes.
    pub table: Table,
    /// `ag(r)`.
    pub agree: AgreeInfo,
    /// `max(dep(r), A)` per attribute.
    pub max: Vec<Vec<Mask>>,
}

impl Reference {
    /// Computes the reference facts of `r`.
    pub fn new(r: &Relation) -> Reference {
        let table = Table::of(r);
        let agree = table.agree_sets();
        let max = agree.max_sets();
        Reference { table, agree, max }
    }

    /// |MAX(dep(r))|.
    pub fn max_union_len(&self) -> usize {
        max_union(&self.max).len()
    }
}

/// Checks one output per miner. Exact covers must be byte-identical once
/// sorted and pass [`check_cover`]; Armstrong relations must pass
/// [`check_armstrong`]; approximate covers must pass [`check_approx`] and,
/// when `approx_reference` is given (an uninterrupted run next to a
/// resumed one), equal it.
pub fn verify(
    r: &Relation,
    reference: &Reference,
    outputs: &[(Kind, &Output)],
    approx_reference: Option<&[ApproxFd]>,
    seed: u64,
) -> Vec<(Kind, Result<(), String>)> {
    let mut rng = Rng::new(seed ^ 0xc4ec);
    let mut checked: Vec<(Vec<u8>, Result<(), String>)> = Vec::new();
    let mut first_bytes: Option<(Kind, Vec<u8>)> = None;
    outputs
        .iter()
        .map(|&(kind, out)| {
            let verdict = match out {
                Output::Exact { fds, armstrong } => {
                    let bytes = cover_bytes(fds);
                    let cover = match checked.iter().find(|(b, _)| *b == bytes) {
                        Some((_, v)) => v.clone(),
                        None => {
                            let v = check_cover(
                                &reference.table,
                                fds,
                                &reference.max,
                                &mut rng,
                                SAMPLES,
                            );
                            checked.push((bytes.clone(), v.clone()));
                            v
                        }
                    };
                    let same = match &first_bytes {
                        None => {
                            first_bytes = Some((kind, bytes));
                            Ok(())
                        }
                        Some((_, b)) if *b == bytes => Ok(()),
                        Some((k, _)) => Err(format!("cover differs from {}'s", k.name())),
                    };
                    let arm = armstrong.as_ref().map_or(Ok(()), |s| {
                        check_armstrong(r, s, fds, &reference.max, &mut rng, SAMPLES)
                    });
                    cover.and(same).and(arm)
                }
                Output::Approx(fds) => {
                    check_approx(&reference.table, fds, EPSILON, &mut rng, SAMPLES).and_then(|()| {
                        match approx_reference {
                            Some(want) if want != fds.as_slice() => Err(
                                "resumed approximate cover differs from an uninterrupted one"
                                    .to_string(),
                            ),
                            _ => Ok(()),
                        }
                    })
                }
            };
            (kind, verdict)
        })
        .collect()
}
