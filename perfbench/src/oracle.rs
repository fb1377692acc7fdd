//! Correctness checks computed apart from the miners.
//!
//! Everything here works on the relation's raw column codes and on plain
//! `u128` attribute masks. FD validity is a group-by written in this file;
//! nothing calls `Relation::satisfies`, the stripped partition database or
//! the FD theory crate. The checks are sampled with a seeded generator so a
//! run on a large relation stays cheap, and become exhaustive on small
//! schemas (the unit tests rely on that).

use depminer_relation::{Relation, Value, MAX_ATTRS};
// The checks hash with their own `MixHasher`, apart from the program's
// fxhash; lint: allow(default-hasher)
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An attribute set as a bit mask (attribute `a` is bit `a`).
pub type Mask = u128;

/// An exact FD `lhs → rhs`.
pub type ExactFd = (Mask, usize);

/// An approximate FD `lhs → rhs` with the g₃ error the miner reported.
pub type ApproxFd = (Mask, usize, f64);

/// Schemas up to this width are checked exhaustively: every `(X, A)`.
const EXHAUSTIVE_ARITY: usize = 10;

/// A word-at-a-time hasher (SplitMix64 finaliser) for the group-by maps.
#[derive(Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.rotate_left(29) ^ v;
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }
}

// lint: allow(default-hasher) -- keyed by MixHasher, not SipHash
type Map<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;
// lint: allow(default-hasher) -- keyed by MixHasher, not SipHash
type Set<K> = HashSet<K, BuildHasherDefault<MixHasher>>;

/// SplitMix64: the seeded generator behind every sample.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fc0_ffee)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The attributes of a mask, in increasing order.
pub fn attrs(m: Mask) -> impl Iterator<Item = usize> {
    (0..MAX_ATTRS).filter(move |&a| m >> a & 1 == 1)
}

fn bit(a: usize) -> Mask {
    1u128 << a
}

fn is_subset(x: Mask, y: Mask) -> bool {
    x & !y == 0
}

/// Indices of `n` distinct picks out of `0..len` (all of them when
/// `len <= n`).
fn sample_indices(rng: &mut Rng, len: usize, n: usize) -> Vec<usize> {
    if len <= n {
        return (0..len).collect();
    }
    let mut picked = Set::default();
    while picked.len() < n {
        picked.insert(rng.below(len));
    }
    let mut out: Vec<usize> = picked.into_iter().collect();
    out.sort_unstable();
    out
}

/// A relation as column-major raw codes: equal codes in one column mean
/// equal values.
pub struct Table {
    cols: Vec<Vec<u32>>,
    rows: usize,
}

impl Table {
    /// A table from columns of equal length.
    pub fn new(cols: Vec<Vec<u32>>) -> Table {
        let rows = cols.first().map_or(0, Vec::len);
        assert!(cols.iter().all(|c| c.len() == rows), "ragged columns");
        Table { cols, rows }
    }

    /// The relation's raw column codes.
    pub fn of(r: &Relation) -> Table {
        Table::new(
            (0..r.arity())
                .map(|a| r.column(a).codes().to_vec())
                .collect(),
        )
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of tuples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// A dense group id per tuple for the projection on `x`, and the
    /// number of groups.
    fn groups(&self, x: Mask) -> (Vec<u32>, usize) {
        let mut ids = vec![0u32; self.rows];
        let mut count = usize::from(self.rows > 0);
        for a in attrs(x) {
            let col = &self.cols[a];
            let mut remap: Map<u64, u32> = Map::default();
            remap.reserve(count);
            for (id, &code) in ids.iter_mut().zip(col) {
                let key = u64::from(*id) << 32 | u64::from(code);
                let next = remap.len() as u32;
                *id = *remap.entry(key).or_insert(next);
            }
            count = remap.len();
        }
        (ids, count)
    }

    /// Whether `x → a` holds: no two tuples agree on `x` and differ on `a`.
    pub fn holds(&self, x: Mask, a: usize) -> bool {
        let (ids, count) = self.groups(x);
        let mut seen: Vec<Option<u32>> = vec![None; count];
        for (&id, &code) in ids.iter().zip(&self.cols[a]) {
            match &mut seen[id as usize] {
                slot @ None => *slot = Some(code),
                Some(c) if *c != code => return false,
                Some(_) => {}
            }
        }
        true
    }

    /// g₃(x → a): the least share of tuples to delete so that `x → a`
    /// holds.
    pub fn g3(&self, x: Mask, a: usize) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let (ids, count) = self.groups(x);
        let mut pairs: Map<u64, u32> = Map::default();
        for (&id, &code) in ids.iter().zip(&self.cols[a]) {
            *pairs
                .entry(u64::from(id) << 32 | u64::from(code))
                .or_insert(0) += 1;
        }
        let mut best = vec![0u32; count];
        for (key, n) in pairs {
            let g = (key >> 32) as usize;
            best[g] = best[g].max(n);
        }
        let kept: usize = best.iter().map(|&b| b as usize).sum();
        (self.rows - kept) as f64 / self.rows as f64
    }

    /// The agree sets of all couples of tuples, from a bucket of equal
    /// codes per column (a couple that shares no value has the empty agree
    /// set, recorded in [`AgreeInfo::has_empty`]).
    pub fn agree_sets(&self) -> AgreeInfo {
        let m = self.arity();
        let n = self.rows;
        let row_major: Vec<u32> = (0..n)
            .flat_map(|t| self.cols.iter().map(move |c| c[t]))
            .collect();
        let agree = |t: usize, u: usize| -> Mask {
            let (rt, ru) = (
                &row_major[t * m..(t + 1) * m],
                &row_major[u * m..(u + 1) * m],
            );
            rt.iter()
                .zip(ru)
                .enumerate()
                .filter(|(_, (x, y))| x == y)
                .fold(0, |acc, (a, _)| acc | bit(a))
        };
        let mut sets: Set<Mask> = Set::default();
        let mut sharing_couples: u128 = 0;
        for (a, col) in self.cols.iter().enumerate() {
            let mut buckets: Map<u32, Vec<u32>> = Map::default();
            for (t, &code) in col.iter().enumerate() {
                buckets.entry(code).or_default().push(t as u32);
            }
            for bucket in buckets.values() {
                for (i, &t) in bucket.iter().enumerate() {
                    for &u in &bucket[i + 1..] {
                        let ag = agree(t as usize, u as usize);
                        // Count and record each couple once: in the bucket
                        // of the lowest attribute it agrees on.
                        if ag.trailing_zeros() as usize == a {
                            sharing_couples += 1;
                            sets.insert(ag);
                        }
                    }
                }
            }
        }
        let all_couples = (n as u128) * (n.saturating_sub(1) as u128) / 2;
        let mut sets: Vec<Mask> = sets.into_iter().collect();
        sets.sort_unstable();
        AgreeInfo {
            arity: m,
            sets,
            has_empty: sharing_couples < all_couples,
        }
    }
}

/// `ag(r)`: the distinct agree sets of the couples of `r`.
pub struct AgreeInfo {
    /// Number of attributes.
    pub arity: usize,
    /// The distinct non-empty agree sets, sorted.
    pub sets: Vec<Mask>,
    /// Whether some couple agrees on no attribute.
    pub has_empty: bool,
}

impl AgreeInfo {
    /// `max(dep(r), A)` for every attribute `A`: the maximal agree sets
    /// that avoid `A` (Lemma 3 of the paper), or `{∅}` when only the empty
    /// agree set avoids it. A constant attribute has none.
    pub fn max_sets(&self) -> Vec<Vec<Mask>> {
        (0..self.arity)
            .map(|a| {
                let mut cands: Vec<Mask> = self
                    .sets
                    .iter()
                    .copied()
                    .filter(|&x| x & bit(a) == 0)
                    .collect();
                cands.sort_unstable_by_key(|x| std::cmp::Reverse(x.count_ones()));
                let mut max: Vec<Mask> = Vec::new();
                for x in cands {
                    if !max.iter().any(|&y| is_subset(x, y)) {
                        max.push(x);
                    }
                }
                if max.is_empty() && self.has_empty {
                    max.push(0);
                }
                max.sort_unstable();
                max
            })
            .collect()
    }
}

/// `MAX(dep(r))`: the distinct sets over every attribute's maximal sets.
pub fn max_union(max: &[Vec<Mask>]) -> Vec<Mask> {
    let mut all: Vec<Mask> = max.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// An exact cover grouped by right-hand side.
struct Cover {
    lhs: Vec<Vec<Mask>>,
}

impl Cover {
    fn new(arity: usize, fds: &[ExactFd]) -> Cover {
        let mut lhs = vec![Vec::new(); arity];
        for &(x, a) in fds {
            if a < arity {
                lhs[a].push(x);
            }
        }
        Cover { lhs }
    }

    /// Whether the cover derives `x → a`, i.e. some emitted lhs of `a`
    /// lies inside `x`.
    fn derives(&self, x: Mask, a: usize) -> bool {
        x & bit(a) != 0 || self.lhs[a].iter().any(|&l| is_subset(l, x))
    }
}

/// A random lhs: 1 to 4 distinct attributes other than `a`.
fn random_lhs(rng: &mut Rng, arity: usize, a: usize) -> Mask {
    let k = 1 + rng.below(4.min(arity - 1));
    let mut x: Mask = 0;
    while (x.count_ones() as usize) < k {
        let b = rng.below(arity);
        if b != a {
            x |= bit(b);
        }
    }
    x
}

/// Every `(X, A)` probe the completeness checks make: all of them on a
/// schema of at most [`EXHAUSTIVE_ARITY`] attributes, else `samples`
/// random ones.
fn probes(rng: &mut Rng, arity: usize, samples: usize) -> Vec<(Mask, usize)> {
    if arity < 2 {
        return Vec::new();
    }
    if arity <= EXHAUSTIVE_ARITY {
        let full: Mask = (1 << arity) - 1;
        return (0..arity)
            .flat_map(|a| {
                let rest = full & !bit(a);
                (0..=rest)
                    .filter(move |x| is_subset(*x, rest))
                    .map(move |x| (x, a))
            })
            .collect();
    }
    (0..samples)
        .map(|_| {
            let a = rng.below(arity);
            (random_lhs(rng, arity, a), a)
        })
        .collect()
}

/// Checks an exact FD cover against the relation:
///
/// * every FD is non-trivial and within the schema, none repeats;
/// * every sampled X → A holds, and every X∖{B} → A fails (minimality);
/// * for sampled A and M ∈ max(dep(r), A), M derives no lhs of A while
///   every M ∪ {B} does (completeness at the border the paper's Lemma 3
///   draws); a constant A has `∅ → A`;
/// * for random (X, A), X → A holds exactly when X contains an emitted lhs
///   of A (completeness).
pub fn check_cover(
    t: &Table,
    fds: &[ExactFd],
    max: &[Vec<Mask>],
    rng: &mut Rng,
    samples: usize,
) -> Result<(), String> {
    let arity = t.arity();
    let full: Mask = if arity == MAX_ATTRS {
        !0
    } else {
        (1 << arity) - 1
    };
    let mut seen: Set<(Mask, usize)> = Set::default();
    for &(x, a) in fds {
        if a >= arity || !is_subset(x, full) {
            return Err(format!("FD {x:#x} -> {a} lies outside the schema"));
        }
        if x & bit(a) != 0 {
            return Err(format!("FD {x:#x} -> {a} is trivial"));
        }
        if !seen.insert((x, a)) {
            return Err(format!("FD {x:#x} -> {a} is emitted twice"));
        }
    }
    for i in sample_indices(rng, fds.len(), samples) {
        let (x, a) = fds[i];
        if !t.holds(x, a) {
            return Err(format!("emitted FD {x:#x} -> {a} does not hold"));
        }
        for b in attrs(x) {
            if t.holds(x & !bit(b), a) {
                return Err(format!(
                    "emitted FD {x:#x} -> {a} is not minimal: dropping {b} still holds"
                ));
            }
        }
    }
    let cover = Cover::new(arity, fds);
    let borders: Vec<(usize, Mask)> = (0..arity)
        .flat_map(|a| max[a].iter().map(move |&m| (a, m)))
        .collect();
    for i in sample_indices(rng, borders.len(), samples) {
        let (a, m) = borders[i];
        if cover.derives(m, a) {
            return Err(format!(
                "maximal non-determining set {m:#x} of {a} derives it"
            ));
        }
        for b in (0..arity).filter(|&b| b != a && m & bit(b) == 0) {
            if !cover.derives(m | bit(b), a) {
                return Err(format!(
                    "{:#x} -> {a} holds (it extends a maximal set) but no emitted lhs covers it",
                    m | bit(b)
                ));
            }
        }
    }
    if t.rows() > 1 {
        for a in (0..arity).filter(|&a| max[a].is_empty()) {
            if !cover.derives(0, a) {
                return Err(format!("attribute {a} is constant but ∅ -> {a} is missing"));
            }
        }
    }
    for (x, a) in probes(rng, arity, samples) {
        let holds = t.holds(x, a);
        if holds != cover.derives(x, a) {
            return Err(format!(
                "{x:#x} -> {a} {} in r but the cover says otherwise",
                if holds { "holds" } else { "fails" }
            ));
        }
    }
    Ok(())
}

/// Checks approximate FDs mined at threshold `eps`: every sampled
/// X → A has g₃ ≤ ε and the g₃ the miner reported, every X∖{B} → A has
/// g₃ > ε, and for random (X, A), g₃(X → A) ≤ ε exactly when X contains
/// an emitted lhs of A (g₃ only falls as the lhs grows).
pub fn check_approx(
    t: &Table,
    fds: &[ApproxFd],
    eps: f64,
    rng: &mut Rng,
    samples: usize,
) -> Result<(), String> {
    let arity = t.arity();
    for i in sample_indices(rng, fds.len(), samples) {
        let (x, a, reported) = fds[i];
        let g = t.g3(x, a);
        if g > eps {
            return Err(format!("approximate FD {x:#x} -> {a} has g3 {g} > {eps}"));
        }
        if (g - reported).abs() > 1e-9 {
            return Err(format!(
                "approximate FD {x:#x} -> {a}: reported g3 {reported}, recomputed {g}"
            ));
        }
        for b in attrs(x) {
            let gb = t.g3(x & !bit(b), a);
            if gb <= eps {
                return Err(format!(
                    "approximate FD {x:#x} -> {a} is not minimal: without {b} g3 is {gb}"
                ));
            }
        }
    }
    let exact: Vec<ExactFd> = fds.iter().map(|&(x, a, _)| (x, a)).collect();
    let cover = Cover::new(arity, &exact);
    for (x, a) in probes(rng, arity, samples) {
        let within = t.g3(x, a) <= eps;
        if within != cover.derives(x, a) {
            return Err(format!(
                "g3({x:#x} -> {a}) is {} eps but the approximate cover says otherwise",
                if within { "within" } else { "above" }
            ));
        }
    }
    Ok(())
}

/// Checks a real-world Armstrong relation `s` of `r`: it has
/// |MAX(dep(r))| + 1 tuples, every value of a column of `s` occurs in the
/// same column of `r`, and `s` satisfies a sampled X → A exactly when `r`
/// does (sampled from the emitted FDs, their minimality witnesses, the
/// maximal sets and random probes).
pub fn check_armstrong(
    r: &Relation,
    s: &Relation,
    fds: &[ExactFd],
    max: &[Vec<Mask>],
    rng: &mut Rng,
    samples: usize,
) -> Result<(), String> {
    let expected = max_union(max).len() + 1;
    if s.len() != expected {
        return Err(format!(
            "Armstrong relation has {} tuples, |MAX(dep(r))| + 1 = {expected}",
            s.len()
        ));
    }
    if s.arity() != r.arity() {
        return Err(format!("Armstrong relation has {} attributes", s.arity()));
    }
    for a in 0..r.arity() {
        let values: Set<&Value> = (0..r.len()).map(|t| r.value(t, a)).collect();
        if let Some(t) = (0..s.len()).find(|&t| !values.contains(s.value(t, a))) {
            return Err(format!(
                "Armstrong tuple {t} has value {} in column {a}, absent from r",
                s.value(t, a)
            ));
        }
    }
    let tr = Table::of(r);
    let ts = Table::of(s);
    let mut questions: Vec<(Mask, usize)> = Vec::new();
    for i in sample_indices(rng, fds.len(), samples) {
        let (x, a) = fds[i];
        questions.push((x, a));
        questions.extend(attrs(x).map(|b| (x & !bit(b), a)));
    }
    let borders: Vec<(usize, Mask)> = (0..r.arity())
        .flat_map(|a| max[a].iter().map(move |&m| (a, m)))
        .collect();
    for i in sample_indices(rng, borders.len(), samples) {
        let (a, m) = borders[i];
        questions.push((m, a));
    }
    questions.extend(probes(rng, r.arity(), samples));
    for (x, a) in questions {
        let in_r = tr.holds(x, a);
        if ts.holds(x, a) != in_r {
            return Err(format!(
                "{x:#x} -> {a} {} in r but not in the Armstrong relation",
                if in_r { "holds" } else { "fails" }
            ));
        }
    }
    Ok(())
}

/// The sorted byte form of an exact cover: equal bytes mean equal covers.
pub fn cover_bytes(fds: &[ExactFd]) -> Vec<u8> {
    let mut sorted = fds.to_vec();
    sorted.sort_unstable_by_key(|&(x, a)| (a, x));
    sorted
        .iter()
        .flat_map(|&(x, a)| {
            let mut b = x.to_le_bytes().to_vec();
            b.extend_from_slice(&(a as u32).to_le_bytes());
            b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_relation::{datasets, Schema};

    fn set(attrs: &[usize]) -> Mask {
        attrs.iter().fold(0, |m, &a| m | bit(a))
    }

    /// All minimal non-trivial FDs of a small table, by brute force over
    /// the group-by.
    fn brute_cover(t: &Table) -> Vec<ExactFd> {
        let n = t.arity();
        let mut out = Vec::new();
        for a in 0..n {
            let rest: Mask = ((1 << n) - 1) & !bit(a);
            let mut found: Vec<Mask> = Vec::new();
            let mut xs: Vec<Mask> = (0..=rest).filter(|x| is_subset(*x, rest)).collect();
            xs.sort_unstable_by_key(|x| x.count_ones());
            for x in xs {
                if !found.iter().any(|&l| is_subset(l, x)) && t.holds(x, a) {
                    found.push(x);
                }
            }
            out.extend(found.into_iter().map(|x| (x, a)));
        }
        out
    }

    /// A 7-attribute relation with planted FDs: C = f(A), D = g(A, B),
    /// F = h(E); A, B, E free; G copies B on all but about 3% of the
    /// tuples, so B → G holds only approximately.
    fn planted() -> Relation {
        let mut rng = Rng::new(7);
        let rows = 300;
        let mut cols: Vec<Vec<u32>> = (0..7).map(|_| Vec::with_capacity(rows)).collect();
        for _ in 0..rows {
            let a = rng.below(12) as u32;
            let b = rng.below(5) as u32;
            let e = rng.below(9) as u32;
            let g = if rng.below(100) < 3 {
                5 + rng.below(3) as u32
            } else {
                b
            };
            let row = [a, b, a % 4, (a * 7 + b) % 6, e, e / 3, g];
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Relation::from_columns(Schema::synthetic(7).unwrap(), cols).unwrap()
    }

    fn max_of(t: &Table) -> Vec<Vec<Mask>> {
        t.agree_sets().max_sets()
    }

    #[test]
    fn employee_has_fourteen_fds_and_three_maximal_sets() {
        let r = datasets::employee();
        let t = Table::of(&r);
        let cover = brute_cover(&t);
        assert_eq!(cover.len(), 14);
        let max = max_of(&t);
        assert_eq!(max_union(&max).len(), 3);
        check_cover(&t, &cover, &max, &mut Rng::new(1), 100).unwrap();
    }

    #[test]
    fn employee_armstrong_relation_has_four_tuples_and_passes() {
        let r = datasets::employee();
        let t = Table::of(&r);
        let cover = brute_cover(&t);
        let max = max_of(&t);
        let max_union_sets: Vec<depminer_relation::AttrSet> = max_union(&max)
            .iter()
            .map(|&m| depminer_relation::AttrSet::from_indices(attrs(m)))
            .collect();
        let s = depminer_core::real_world_armstrong(&r, &max_union_sets).unwrap();
        assert_eq!(s.len(), 4);
        check_armstrong(&r, &s, &cover, &max, &mut Rng::new(2), 100).unwrap();
        // A relation that drops a tuple is no Armstrong relation.
        let short = Relation::from_rows(r.schema().clone(), s.rows().take(3).collect()).unwrap();
        assert!(check_armstrong(&r, &short, &cover, &max, &mut Rng::new(2), 100).is_err());
        // r itself has the right values but the wrong size.
        assert!(check_armstrong(&r, &r, &cover, &max, &mut Rng::new(2), 100).is_err());
    }

    #[test]
    fn employee_armstrong_with_foreign_value_is_rejected() {
        let r = datasets::employee();
        let t = Table::of(&r);
        let cover = brute_cover(&t);
        let max = max_of(&t);
        let sets: Vec<depminer_relation::AttrSet> = max_union(&max)
            .iter()
            .map(|&m| depminer_relation::AttrSet::from_indices(attrs(m)))
            .collect();
        let s = depminer_core::real_world_armstrong(&r, &sets).unwrap();
        let mut rows: Vec<Vec<Value>> = s.rows().collect();
        rows[0][2] = Value::Int(1999);
        let bad = Relation::from_rows(r.schema().clone(), rows).unwrap();
        let err = check_armstrong(&r, &bad, &cover, &max, &mut Rng::new(3), 100).unwrap_err();
        assert!(err.contains("absent from r"), "{err}");
    }

    #[test]
    fn planted_cover_is_accepted() {
        let t = Table::of(&planted());
        let cover = brute_cover(&t);
        assert!(cover.contains(&(set(&[0]), 2)));
        assert!(cover.contains(&(set(&[0, 1]), 3)));
        assert!(cover.contains(&(set(&[4]), 5)));
        check_cover(&t, &cover, &max_of(&t), &mut Rng::new(4), 100).unwrap();
    }

    #[test]
    fn planted_cover_with_an_fd_added_is_rejected() {
        let t = Table::of(&planted());
        let max = max_of(&t);
        let mut cover = brute_cover(&t);
        // B -> C does not hold.
        cover.push((set(&[1]), 2));
        assert!(check_cover(&t, &cover, &max, &mut Rng::new(5), 100).is_err());
        // A, E -> C holds but is not minimal.
        let mut cover = brute_cover(&t);
        cover.push((set(&[0, 4]), 2));
        assert!(check_cover(&t, &cover, &max, &mut Rng::new(5), 100).is_err());
    }

    #[test]
    fn planted_cover_with_an_fd_dropped_is_rejected() {
        let t = Table::of(&planted());
        let max = max_of(&t);
        let full = brute_cover(&t);
        for i in 0..full.len() {
            let mut cover = full.clone();
            let dropped = cover.remove(i);
            let err = check_cover(&t, &cover, &max, &mut Rng::new(6), 100);
            assert!(err.is_err(), "dropping {dropped:?} went unnoticed");
        }
    }

    #[test]
    fn planted_cover_with_a_widened_lhs_is_rejected() {
        let t = Table::of(&planted());
        let max = max_of(&t);
        let mut cover = brute_cover(&t);
        let i = cover.iter().position(|&fd| fd == (set(&[4]), 5)).unwrap();
        cover[i] = (set(&[1, 4]), 5);
        let err = check_cover(&t, &cover, &max, &mut Rng::new(8), 100).unwrap_err();
        assert!(err.contains("not minimal"), "{err}");
    }

    #[test]
    fn trivial_and_repeated_fds_are_rejected() {
        let t = Table::of(&planted());
        let max = max_of(&t);
        let mut cover = brute_cover(&t);
        cover.push((set(&[0, 2]), 2));
        assert!(check_cover(&t, &cover, &max, &mut Rng::new(9), 100).is_err());
        let mut cover = brute_cover(&t);
        cover.push(cover[0]);
        assert!(check_cover(&t, &cover, &max, &mut Rng::new(9), 100).is_err());
    }

    #[test]
    fn miners_pass_on_the_planted_relation() {
        let r = planted();
        let t = Table::of(&r);
        let result = depminer_core::DepMiner::new().mine(&r);
        let fds: Vec<ExactFd> = result.fds.iter().map(|f| (f.lhs.bits(), f.rhs)).collect();
        assert_eq!(cover_bytes(&fds), cover_bytes(&brute_cover(&t)));
        let max = max_of(&t);
        check_cover(&t, &fds, &max, &mut Rng::new(10), 100).unwrap();
        let s = result.real_world_armstrong(&r).unwrap();
        check_armstrong(&r, &s, &fds, &max, &mut Rng::new(11), 100).unwrap();
    }

    #[test]
    fn agree_sets_match_all_pairs() {
        let t = Table::of(&planted());
        let info = t.agree_sets();
        let mut all: Set<Mask> = Set::default();
        for i in 0..t.rows() {
            for j in i + 1..t.rows() {
                let ag = (0..t.arity())
                    .filter(|&a| t.cols[a][i] == t.cols[a][j])
                    .fold(0, |m, a| m | bit(a));
                all.insert(ag);
            }
        }
        assert_eq!(info.has_empty, all.contains(&0));
        all.remove(&0);
        let mut expected: Vec<Mask> = all.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(info.sets, expected);
    }

    #[test]
    fn g3_matches_a_hand_count() {
        // X = {0} has groups {0,1,2} and {3,4}; A differs once per group.
        let t = Table::new(vec![vec![0, 0, 0, 1, 1], vec![5, 5, 6, 7, 8]]);
        assert!((t.g3(set(&[0]), 1) - 2.0 / 5.0).abs() < 1e-12);
        assert_eq!(t.g3(set(&[1]), 0), 0.0);
        assert!(t.holds(set(&[1]), 0));
        assert!(!t.holds(set(&[0]), 1));
        assert!(!t.holds(0, 1));
    }

    #[test]
    fn approximate_checks_accept_exact_mining_and_reject_bad_errors() {
        let r = planted();
        let t = Table::of(&r);
        let eps = 0.05;
        let fds: Vec<ApproxFd> = depminer_tane::approximate_fds(&r, eps)
            .iter()
            .map(|f| (f.fd.lhs.bits(), f.fd.rhs, f.error))
            .collect();
        check_approx(&t, &fds, eps, &mut Rng::new(12), 100).unwrap();
        let mut wrong = fds.clone();
        wrong[0].2 += 0.01;
        assert!(check_approx(&t, &wrong, eps, &mut Rng::new(12), 100).is_err());
        let mut dropped = fds.clone();
        dropped.pop();
        assert!(check_approx(&t, &dropped, eps, &mut Rng::new(12), 100).is_err());
        // An exact cover is no approximate one at eps > 0 here.
        let exact: Vec<ApproxFd> = brute_cover(&t)
            .iter()
            .map(|&(x, a)| (x, a, t.g3(x, a)))
            .collect();
        assert!(check_approx(&t, &exact, eps, &mut Rng::new(12), 100).is_err());
    }

    #[test]
    fn cover_bytes_ignore_order() {
        let a = [(set(&[0]), 1), (set(&[2]), 0)];
        let b = [(set(&[2]), 0), (set(&[0]), 1)];
        assert_eq!(cover_bytes(&a), cover_bytes(&b));
        assert_ne!(cover_bytes(&a), cover_bytes(&a[..1]));
    }
}
