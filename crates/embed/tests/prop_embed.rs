//! Property-based tests of the embedding model's operators.

use omega_embed::chebyshev::bessel_iv;
use omega_embed::laplacian::{
    adjacency_plus_identity, log_proximity, modulated_rw_laplacian, normalized_adjacency,
    transition_matrix,
};
use omega_embed::{Embedding, TopK};
use omega_graph::{Csr, GraphBuilder};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Csr> {
    (3u32..40, 2usize..80).prop_flat_map(|(n, edges)| {
        proptest::collection::vec((0..n, 0..n), edges).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v, 1.0).unwrap();
                }
            }
            b.add_edge(0, 1, 1.0).ok();
            b.build_csr().unwrap()
        })
    })
}

/// Score alphabet for the selector property: few distinct values (heavy
/// ties), both zeros, both infinities and NaNs of both signs — every case
/// where the IEEE `<` pre-filter and `total_cmp` could disagree.
const TIE_SCORES: [f32; 10] = [
    1.0,
    0.5,
    0.5,
    -1.0,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    -f32::NAN,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TopK` keeps exactly the `k` best candidates of a full sort under
    /// its total order (score by `total_cmp` descending, ties by ascending
    /// id) — same ids, same score bits — for k of 0, 1, 10 and past n,
    /// whatever order the ids arrive in, and also when two partial
    /// selections are merged. This pins the `score < floor` pre-filter in
    /// `push` to the order it shortcuts.
    #[test]
    fn top_k_keeps_the_k_best_under_the_total_order(
        picks in proptest::collection::vec(0usize..TIE_SCORES.len(), 0..200),
        k_kind in 0usize..4,
        split in 0usize..200,
        id_mode in 0u32..3,
    ) {
        let scores: Vec<f32> = picks.iter().map(|&i| TIE_SCORES[i]).collect();
        let n = scores.len();
        let k = [0, 1, 10, n + 5][k_kind];
        let id = |i: usize| -> u32 {
            match id_mode {
                0 => i as u32,
                1 => (n - i) as u32 * 3,
                // An odd multiplier is a bijection on u32: unique, scrambled.
                _ => (i as u32).wrapping_mul(0x9E37_79B1),
            }
        };
        let mut want: Vec<(u32, f32)> =
            scores.iter().enumerate().map(|(i, &s)| (id(i), s)).collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        want.truncate(k);

        let mut whole = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            whole.push(id(i), s);
        }
        let split = split.min(n);
        let (mut left, mut right) = (TopK::new(k), TopK::new(k));
        for (i, &s) in scores.iter().enumerate() {
            if i < split { left.push(id(i), s) } else { right.push(id(i), s) }
        }
        left.merge(right);

        let bits = |v: Vec<(u32, f32)>| -> Vec<(u32, u32)> {
            v.into_iter().map(|(id, s)| (id, s.to_bits())).collect()
        };
        prop_assert_eq!(bits(whole.into_sorted_vec()), bits(want.clone()));
        prop_assert_eq!(bits(left.into_sorted_vec()), bits(want));
    }

    /// Transition-matrix rows are stochastic (or empty).
    #[test]
    fn transition_rows_stochastic(g in arb_graph()) {
        let p = transition_matrix(&g);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).1.iter().sum();
            if g.degree(r) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
            } else {
                prop_assert_eq!(s, 0.0);
            }
        }
    }

    /// The modulated random-walk Laplacian's rows sum to −μ on non-isolated
    /// nodes (every node is non-isolated after the +I self-loop).
    #[test]
    fn rw_laplacian_row_sums(g in arb_graph(), mu in 0.0f32..0.9) {
        let m = modulated_rw_laplacian(&g, mu).unwrap();
        for r in 0..m.rows() {
            let s: f32 = m.row(r).1.iter().sum();
            prop_assert!((s + mu).abs() < 1e-4, "row {r} sums to {s}, want {}", -mu);
        }
        // Structure: every diagonal present.
        let a1 = adjacency_plus_identity(&g).unwrap();
        prop_assert_eq!(m.nnz(), a1.nnz());
    }

    /// The symmetric normalisation preserves symmetry and bounds the
    /// spectral radius by 1 (checked via a Rayleigh quotient on random x).
    #[test]
    fn normalized_adjacency_contraction(g in arb_graph(), seed in 0u64..500) {
        let s = normalized_adjacency(&g);
        prop_assert!(s.is_symmetric());
        let x = omega_linalg::gaussian_matrix(g.rows() as usize, 1, seed);
        let xv: Vec<f32> = x.col(0).to_vec();
        let y = s.spmv(&xv).unwrap();
        let xn: f64 = xv.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
        let yn: f64 = y.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
        prop_assert!(yn <= xn * (1.0 + 1e-4), "||Sx|| = {yn} > ||x|| = {xn}");
    }

    /// Log-proximity keeps the sparsity pattern and non-negative values.
    #[test]
    fn log_proximity_structure(g in arb_graph(), lambda in 0.1f32..5.0) {
        let m = log_proximity(&g, lambda);
        prop_assert_eq!(m.nnz(), g.nnz());
        prop_assert!(m.values().iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    /// Bessel three-term recurrence: I_{k−1}(x) − I_{k+1}(x) = (2k/x)·I_k(x).
    #[test]
    fn bessel_recurrence(k in 1usize..8, x in 0.1f64..5.0) {
        let lhs = bessel_iv(k - 1, x) - bessel_iv(k + 1, x);
        let rhs = 2.0 * k as f64 / x * bessel_iv(k, x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * rhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// Word2vec text serialisation round-trips an arbitrary embedding within
    /// the `{:.6}` fixed-point precision `Embedding::to_text` writes.
    #[test]
    fn word2vec_text_roundtrip(
        nodes in 1u32..24,
        d in 1usize..12,
        seed in 0u64..1_000,
        scale in 0.01f32..100.0,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..nodes as usize * d)
            .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * scale)
            .collect();
        let emb = Embedding::from_row_major(nodes, d, data);

        let back = Embedding::parse(&emb.to_text()).expect("own output parses");
        prop_assert_eq!(back.nodes(), emb.nodes());
        prop_assert_eq!(back.dim(), emb.dim());
        for v in 0..nodes {
            for (a, b) in back.vector(v).iter().zip(emb.vector(v)) {
                // to_text writes 6 fractional decimal digits; the absolute
                // error is bounded by half an ulp of that grid.
                prop_assert!((a - b).abs() <= 5e-7 + b.abs() * 1e-6,
                    "node {v}: {a} vs {b}");
            }
        }
    }
}
