//! Blocked f32 kernels shared by the serving scan (`omega-serve`), the
//! embedding top-k (`omega-embed`) and the SpMM inner loop (`omega-spmm` /
//! `omega-graph`).
//!
//! Every kernel uses a **fixed** lane count and a **fixed** reduction order,
//! so results are deterministic: the same inputs produce the same bits on
//! every call, on every thread, at every thread count. The multi-lane
//! accumulators expose independent dependency chains that LLVM turns into
//! SIMD adds without `-ffast-math`-style reassociation licenses — the
//! reassociation is done *here*, once, explicitly.
//!
//! [`dot_scores_into`], the inner loop of every top-k scan, additionally
//! has an explicit x86-64 AVX2 path chosen at runtime. It scores eight rows
//! at a time with one eight-lane accumulator per row (`mul` then `add`,
//! never FMA, which rounds once and would change bits) and reduces each
//! accumulator through an `hadd` tree that pairs lanes exactly as
//! [`dot`]'s adder tree does. The portable loop stays as the fallback and
//! as the oracle the AVX2 path is tested against bit for bit
//! ([`dot_scores_into_scalar`]).
//!
//! The `*_into` variants write into a caller-owned scratch buffer so a
//! blocked scan over many row blocks performs zero allocations after the
//! first block.

/// Lanes of the dense dot-product accumulator. Eight f32 lanes fill one
/// AVX2 register; on narrower ISAs LLVM splits them into two chains.
const DOT_LANES: usize = 8;

/// Lanes of the sparse (gather) accumulator. Gathers are latency-bound, so
/// four independent chains suffice to cover the loads.
const SPARSE_LANES: usize = 4;

/// Dense dot product with eight independent accumulator lanes and a fixed
/// pairwise lane reduction. Deterministic, but **not** bit-identical to a
/// strictly sequential sum — callers that need cross-path bit-identity
/// (e.g. serve scan vs. `Embedding::top_k`) must use this kernel on *both*
/// paths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() - a.len() % DOT_LANES;
    let mut lanes = [0f32; DOT_LANES];
    for (ca, cb) in a[..main]
        .chunks_exact(DOT_LANES)
        .zip(b[..main].chunks_exact(DOT_LANES))
    {
        for l in 0..DOT_LANES {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0f32;
    for (&x, &y) in a[main..].iter().zip(&b[main..]) {
        tail += x * y;
    }
    reduce8(lanes) + tail
}

/// Fixed pairwise reduction of the eight lanes (adder-tree order).
#[inline]
fn reduce8(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Euclidean norm through the lane-reduced [`dot`].
#[inline]
pub fn norm2(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity through the lane-reduced [`dot`] (0 when either vector
/// is zero), mirroring `ops::cosine`'s formula exactly.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm2(a);
    let nb = norm2(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Sparse row · dense vector: `Σ vals[i] * dense[cols[i]]`, four gather
/// lanes, fixed reduction. The shared inner loop of `Csr::spmv`,
/// `Csdb::spmv` and the SpMM kernel's accumulation step — identical
/// `(cols, vals)` sequences therefore produce bit-identical sums whichever
/// format streamed them.
#[inline]
pub fn sparse_dot(cols: &[u32], vals: &[f32], dense: &[f32]) -> f32 {
    debug_assert_eq!(cols.len(), vals.len());
    let main = cols.len() - cols.len() % SPARSE_LANES;
    let mut lanes = [0f32; SPARSE_LANES];
    for (cc, cv) in cols[..main]
        .chunks_exact(SPARSE_LANES)
        .zip(vals[..main].chunks_exact(SPARSE_LANES))
    {
        for l in 0..SPARSE_LANES {
            lanes[l] += cv[l] * dense[cc[l] as usize];
        }
    }
    let mut tail = 0f32;
    for (&c, &v) in cols[main..].iter().zip(&vals[main..]) {
        tail += v * dense[c as usize];
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Dot-product scores of `query` against every `d`-wide row of a contiguous
/// row-major block, written into `out` (cleared first). The scratch-reusing
/// inner loop of the blocked top-k scans. Bit-identical to calling [`dot`]
/// per row, whichever path the host dispatches to.
#[inline]
pub fn dot_scores_into(query: &[f32], rows: &[f32], d: usize, out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host supports AVX2 (checked just above).
            unsafe { avx2::dot_scores_into(query, rows, d, out) };
            return;
        }
    }
    dot_scores_into_scalar(query, rows, d, out);
}

/// The portable [`dot_scores_into`]: [`dot`] per row. The fallback on
/// hosts without AVX2, and the oracle the AVX2 path must match bit for bit.
#[doc(hidden)]
#[inline]
pub fn dot_scores_into_scalar(query: &[f32], rows: &[f32], d: usize, out: &mut Vec<f32>) {
    debug_assert!(d > 0 && rows.len().is_multiple_of(d));
    debug_assert_eq!(query.len(), d);
    out.clear();
    out.reserve(rows.len() / d);
    for row in rows.chunks_exact(d) {
        out.push(dot(query, row));
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{dot, DOT_LANES};
    use std::arch::x86_64::*;

    /// Rows scored per step: one accumulator register per row.
    const ROWS: usize = 8;

    /// `dot(query, row)` for every row of `rows`, written into `out`
    /// (cleared first).
    ///
    /// Per row this performs the very operations [`dot`] performs, in the
    /// same order: lane `l` accumulates `query[8c + l] * row[8c + l]`
    /// (rounded product, then rounded sum) over the chunks `c`; the lanes
    /// reduce as `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`; the `d % 8` tail is
    /// summed sequentially from `+0.0` and added last. Only the grouping of
    /// rows into registers differs, which no result bit depends on.
    ///
    /// # Safety
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_scores_into(
        query: &[f32],
        rows: &[f32],
        d: usize,
        out: &mut Vec<f32>,
    ) {
        // The unchecked loads below rely on these two bounds.
        assert!(d > 0, "zero-width rows");
        assert_eq!(query.len(), d, "query dimension mismatch");
        debug_assert!(rows.len().is_multiple_of(d));
        out.clear();
        out.reserve(rows.len() / d);
        let main = d - d % DOT_LANES;
        let block = ROWS * d;
        let full = rows.len() / block * block;
        let q = query.as_ptr();
        for group in rows[..full].chunks_exact(block) {
            let p = group.as_ptr();
            let mut acc = [_mm256_setzero_ps(); ROWS];
            let mut c = 0;
            while c < main {
                // SAFETY: `c + 8 <= main <= d`, so both loads stay inside
                // `query` (length `d`) and inside row `r` of `group`
                // (`group[r * d..(r + 1) * d]`, `r < ROWS`).
                let qv = _mm256_loadu_ps(q.add(c));
                for (r, a) in acc.iter_mut().enumerate() {
                    let rv = _mm256_loadu_ps(p.add(r * d + c));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(qv, rv));
                }
                c += DOT_LANES;
            }
            // Adder tree, eight rows at once. Within each 128-bit half,
            // `hadd(x, y)` yields [x0+x1, x2+x3, y0+y1, y2+y3]; two rounds
            // leave ((l0+l1)+(l2+l3)) of rows 0-3 in the low half and
            // ((l4+l5)+(l6+l7)) in the high half (likewise rows 4-7).
            let h01 = _mm256_hadd_ps(acc[0], acc[1]);
            let h23 = _mm256_hadd_ps(acc[2], acc[3]);
            let h45 = _mm256_hadd_ps(acc[4], acc[5]);
            let h67 = _mm256_hadd_ps(acc[6], acc[7]);
            let g0 = _mm256_hadd_ps(h01, h23);
            let g1 = _mm256_hadd_ps(h45, h67);
            let lo = _mm256_permute2f128_ps::<0x20>(g0, g1);
            let hi = _mm256_permute2f128_ps::<0x31>(g0, g1);
            let sums = _mm256_add_ps(lo, hi);
            // Sequential tails, always added (even `+0.0` turns a `-0.0`
            // sum positive, exactly as in `dot`).
            let mut tails = [0f32; ROWS];
            for (r, t) in tails.iter_mut().enumerate() {
                let row = &group[r * d + main..(r + 1) * d];
                for (&x, &y) in query[main..].iter().zip(row) {
                    *t += x * y;
                }
            }
            let mut scores = [0f32; ROWS];
            _mm256_storeu_ps(
                scores.as_mut_ptr(),
                _mm256_add_ps(sums, _mm256_loadu_ps(tails.as_ptr())),
            );
            out.extend_from_slice(&scores);
        }
        for row in rows[full..].chunks_exact(d) {
            out.push(dot(query, row));
        }
    }
}

/// Cosine scores of `query` against every `d`-wide row of a block, written
/// into `out` (cleared first). Bit-identical to calling [`cosine`] per row.
#[inline]
pub fn cosine_scores_into(query: &[f32], rows: &[f32], d: usize, out: &mut Vec<f32>) {
    debug_assert!(d > 0 && rows.len().is_multiple_of(d));
    debug_assert_eq!(query.len(), d);
    out.clear();
    out.reserve(rows.len() / d);
    // `cosine` recomputes the query norm per row; hoisting it produces the
    // very same f32 (same kernel, same inputs), so the block path stays
    // bit-identical to the scalar path while doing 1/3 of the work.
    let nq = norm2(query);
    for row in rows.chunks_exact(d) {
        let nr = norm2(row);
        out.push(if nq == 0.0 || nr == 0.0 {
            0.0
        } else {
            dot(query, row) / (nq * nr)
        });
    }
}

/// Gather `d`-wide rows (by row index into `src`) into `out` (cleared
/// first) as one dense block — the dense-gather kernel behind shard
/// staging and grouped point lookups.
#[inline]
pub fn gather_rows_into(
    src: &[f32],
    d: usize,
    rows: impl IntoIterator<Item = usize>,
    out: &mut Vec<f32>,
) {
    out.clear();
    for r in rows {
        out.extend_from_slice(&src[r * d..(r + 1) * d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.7 - 3.0) * scale).collect()
    }

    #[test]
    fn dot_matches_reference_within_tolerance() {
        for n in [0, 1, 7, 8, 9, 31, 64, 100] {
            let a = seq(n, 0.5);
            let b = seq(n, -1.3);
            let reference: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| x as f64 * y as f64)
                .sum::<f64>();
            let got = dot(&a, &b) as f64;
            assert!(
                (got - reference).abs() <= 1e-3 * (1.0 + reference.abs()),
                "n={n}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn dot_is_deterministic_across_calls() {
        let a = seq(133, 0.9);
        let b = seq(133, 1.1);
        let first = dot(&a, &b);
        for _ in 0..10 {
            assert_eq!(first.to_bits(), dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn sparse_dot_matches_dense_on_identity_pattern() {
        // cols = 0..n makes sparse_dot a plain dot against `dense`, but the
        // lane counts differ (4 vs 8) so compare against an f64 reference.
        let n = 77;
        let vals = seq(n, 0.3);
        let dense = seq(n, -0.8);
        let cols: Vec<u32> = (0..n as u32).collect();
        let reference: f64 = vals
            .iter()
            .zip(&dense)
            .map(|(&v, &x)| v as f64 * x as f64)
            .sum();
        let got = sparse_dot(&cols, &vals, &dense) as f64;
        assert!((got - reference).abs() <= 1e-3 * (1.0 + reference.abs()));
    }

    #[test]
    fn sparse_dot_gathers_out_of_order() {
        let dense = [10.0f32, 20.0, 30.0];
        assert_eq!(sparse_dot(&[2, 0], &[1.0, 2.0], &dense), 30.0 + 20.0);
        assert_eq!(sparse_dot(&[], &[], &dense), 0.0);
    }

    #[test]
    fn scores_into_match_per_row_kernels_bitwise() {
        let d = 13;
        let rows = seq(6 * d, 0.4);
        let query = seq(d, 1.7);
        let mut dots = Vec::new();
        let mut coss = Vec::new();
        dot_scores_into(&query, &rows, d, &mut dots);
        cosine_scores_into(&query, &rows, d, &mut coss);
        assert_eq!(dots.len(), 6);
        for (i, row) in rows.chunks_exact(d).enumerate() {
            assert_eq!(dots[i].to_bits(), dot(&query, row).to_bits());
            assert_eq!(coss[i].to_bits(), cosine(&query, row).to_bits());
        }
        // Scratch reuse: a second, smaller block leaves no stale entries.
        dot_scores_into(&query, &rows[..2 * d], d, &mut dots);
        assert_eq!(dots.len(), 2);
    }

    /// Equal bits, except that any NaN equals any NaN: IEEE 754 leaves the
    /// payload of an operation on NaN operands unspecified, and LLVM may
    /// swap the operands of a commutative add or mul on either path.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Deterministic values that mix ordinary magnitudes with ±0.0, ±inf,
    /// NaN and subnormals (`special_every` = 0 disables the specials).
    fn mixed(n: usize, seed: u64, special_every: u64) -> Vec<f32> {
        const SPECIALS: [f32; 8] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::from_bits(1),
        ];
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if special_every > 0 && x.is_multiple_of(special_every) {
                    SPECIALS[(x >> 32) as usize % SPECIALS.len()]
                } else {
                    // Wide exponent range so rounding actually happens.
                    let m = ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                    m * f32::powi(2.0, ((x >> 8) % 24) as i32 - 12)
                }
            })
            .collect()
    }

    /// The dispatched kernel (AVX2 where the host has it) is bit-identical
    /// to the portable oracle for every width class — below one lane
    /// block, exact multiples, ragged tails — and for row counts that
    /// leave a partial group of eight.
    #[test]
    fn dispatched_scores_match_scalar_oracle_bitwise() {
        let dims: Vec<usize> = (1..=17).chain([31, 32, 33, 64, 100]).collect();
        let mut fast = Vec::new();
        let mut oracle = Vec::new();
        for &d in &dims {
            for n in [0usize, 1, 7, 9, 15, 23, 69] {
                for (seed, special_every) in [(1u64, 0u64), (2, 5), (3, 2)] {
                    let query = mixed(d, seed * 31 + d as u64, special_every);
                    let rows = mixed(n * d, seed * 77 + n as u64, special_every);
                    dot_scores_into(&query, &rows, d, &mut fast);
                    dot_scores_into_scalar(&query, &rows, d, &mut oracle);
                    assert_eq!(fast.len(), n);
                    assert_eq!(oracle.len(), n);
                    for (i, (&f, &o)) in fast.iter().zip(&oracle).enumerate() {
                        assert!(
                            same_bits(f, o),
                            "d={d} n={n} seed={seed} row {i}: {f:?} ({:#x}) vs oracle {o:?} ({:#x})",
                            f.to_bits(),
                            o.to_bits()
                        );
                    }
                }
            }
        }
    }

    /// Signed zeros follow `dot`'s rules on both paths: products of `-0.0`
    /// land on `+0.0` accumulators, so the score is `+0.0`.
    #[test]
    fn dispatched_scores_keep_signed_zero_rules() {
        for d in [8usize, 16, 5] {
            let query = vec![-0.0f32; d];
            let rows = vec![1.0f32; 9 * d];
            let mut fast = Vec::new();
            let mut oracle = Vec::new();
            dot_scores_into(&query, &rows, d, &mut fast);
            dot_scores_into_scalar(&query, &rows, d, &mut oracle);
            for (f, o) in fast.iter().zip(&oracle) {
                assert_eq!(f.to_bits(), o.to_bits());
                assert_eq!(f.to_bits(), 0.0f32.to_bits());
            }
        }
    }

    #[test]
    fn cosine_zero_vectors_score_zero() {
        let d = 9;
        let zeros = vec![0f32; 2 * d];
        let query = seq(d, 1.0);
        let mut out = Vec::new();
        cosine_scores_into(&query, &zeros, d, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        let mut out2 = Vec::new();
        cosine_scores_into(&vec![0f32; d], &seq(d, 1.0), d, &mut out2);
        assert_eq!(out2, vec![0.0]);
    }

    #[test]
    fn gather_rows_collects_in_order() {
        let src: Vec<f32> = (0..12).map(|i| i as f32).collect(); // 4 rows × 3
        let mut out = Vec::new();
        gather_rows_into(&src, 3, [3usize, 0, 2], &mut out);
        assert_eq!(out, vec![9.0, 10.0, 11.0, 0.0, 1.0, 2.0, 6.0, 7.0, 8.0]);
        gather_rows_into(&src, 3, [1usize], &mut out);
        assert_eq!(out, vec![3.0, 4.0, 5.0]);
    }
}
