//! Forged labelings that stay well-formed.
//!
//! A compiled (Theorem 3.1) label is `(κ, ℓ(v), ℓ(w₁), …, ℓ(w_d))`: a
//! 32-bit κ, then each part as a 32-bit length and its bits. Flipping a bit
//! inside a claimed neighbor copy `ℓ(w_i)` keeps the label parseable and of
//! the right arity, so the verifier cannot reject it statically: the
//! receiving port needs a per-trial fingerprint probe (a `Dynamic` node in
//! the batch plan), which is the work a soundness audit pays for.

use rand::rngs::StdRng;
use rand::RngExt as _;
use rpls_bits::BitString;
use rpls_core::Labeling;
use rpls_graph::NodeId;

const LEN_BITS: usize = 32;

fn read_field(label: &BitString, at: usize) -> Option<usize> {
    (0..LEN_BITS).try_fold(0usize, |acc, i| {
        Some((acc << 1) | usize::from(label.bit(at + i)?))
    })
}

/// The bit ranges of every claimed neighbor copy in a compiled label
/// (empty copies are skipped; an unparseable label yields none).
pub fn neighbor_copy_ranges(label: &BitString) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut at = LEN_BITS;
    let mut part = 0usize;
    while at < label.len() {
        let Some(len) = read_field(label, at) else {
            return Vec::new();
        };
        at += LEN_BITS;
        if at + len > label.len() {
            return Vec::new();
        }
        if part > 0 && len > 0 {
            out.push(at..at + len);
        }
        at += len;
        part += 1;
    }
    out
}

/// `label` with bit `index` flipped.
pub fn flip_bit(label: &BitString, index: usize) -> BitString {
    BitString::from_bools(label.iter().enumerate().map(|(i, b)| b ^ (i == index)))
}

/// Flips one random bit of one random neighbor copy at a random node, at
/// `flips` distinct nodes of `labeling`. Nodes without a non-empty copy
/// are skipped, so every flip lands.
pub fn forge_copies(labeling: &mut Labeling, flips: usize, rng: &mut StdRng) {
    let n = labeling.len();
    let mut touched = Vec::with_capacity(flips);
    while touched.len() < flips.min(n) {
        let v = rng.random_range(0..n);
        if touched.contains(&v) {
            continue;
        }
        let label = labeling.get(NodeId::new(v));
        let copies = neighbor_copy_ranges(label);
        if copies.is_empty() {
            continue;
        }
        let range = &copies[rng.random_range(0..copies.len())];
        let bit = rng.random_range(range.clone());
        let forged = flip_bit(label, bit);
        labeling.set(NodeId::new(v), forged);
        touched.push(v);
    }
}
