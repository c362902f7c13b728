//! Cross-crate integration: the full embedding pipeline from raw edges to
//! evaluated embeddings under every system variant.

use omega::{Omega, OmegaConfig, SystemVariant};
use omega_embed::eval::{link_prediction_auc, node_classification_micro_f1};
use omega_graph::{Dataset, EdgeList, GraphBuilder, RmatConfig, SbmConfig};
use omega_hetmem::Topology;

fn quick(dim: usize) -> OmegaConfig {
    OmegaConfig::default().with_threads(8).with_dim(dim)
}

#[test]
fn edge_list_to_embedding_end_to_end() {
    // Build a graph from text, embed it, serialise and reparse the result.
    let mut text = String::new();
    let csr = RmatConfig::social(400, 3_000, 50).generate_csr().unwrap();
    for u in 0..csr.rows() {
        let (cols, vals) = csr.row(u);
        for (&v, &w) in cols.iter().zip(vals) {
            if u < v {
                // Duplicate R-MAT samples sum into weights > 1; keep them.
                text.push_str(&format!("{u} {v} {w}\n"));
            }
        }
    }
    let parsed = EdgeList::parse(&text).unwrap();
    // High-id nodes can be isolated in the R-MAT sample, so give the
    // builder the true node count rather than inferring it.
    let mut builder = GraphBuilder::new(csr.rows());
    for (u, v, w) in parsed.iter() {
        builder.add_edge(u, v, w).unwrap();
    }
    let graph = builder.build_csr().unwrap();
    assert_eq!(graph, csr);

    let run = Omega::new(quick(16)).unwrap().embed(&graph).unwrap();
    let round_tripped = omega_embed::Embedding::parse(&run.embedding.to_text()).unwrap();
    assert_eq!(round_tripped.nodes(), run.embedding.nodes());
    assert_eq!(round_tripped.dim(), 16);
    // Serialisation is lossy to 6 decimals only.
    for v in (0..graph.rows()).step_by(37) {
        for (a, b) in round_tripped.vector(v).iter().zip(run.embedding.vector(v)) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}

#[test]
fn all_variants_produce_identical_embeddings() {
    // Memory placement must never change numerics — only simulated time.
    let g = RmatConfig::social(300, 2_500, 8).generate_csr().unwrap();
    let reference = Omega::new(quick(8)).unwrap().embed(&g).unwrap();
    for v in [
        SystemVariant::OmegaDram,
        SystemVariant::OmegaPm,
        SystemVariant::OmegaWithoutWofp,
        SystemVariant::OmegaWithoutNadp,
        SystemVariant::OmegaWithoutAsl,
    ] {
        let run = Omega::new(quick(8).with_variant(v))
            .unwrap()
            .embed(&g)
            .unwrap();
        assert_eq!(
            run.embedding,
            reference.embedding,
            "variant {} diverged numerically",
            v.label()
        );
    }
}

#[test]
fn embeddings_are_useful_downstream() {
    let sbm = SbmConfig::assortative(400, 31);
    let g = sbm.generate_csr().unwrap();
    let run = Omega::new(quick(16)).unwrap().embed(&g).unwrap();
    let auc = link_prediction_auc(&run.embedding, &g, 300, 3);
    assert!(auc > 0.75, "link prediction auc={auc}");
    let f1 = node_classification_micro_f1(&run.embedding, &sbm.labels(), 0.6, 4);
    assert!(f1 > 0.7, "classification f1={f1}");
}

#[test]
fn report_breakdown_is_consistent() {
    let g = Dataset::Pk.load_scaled(8_000).unwrap();
    let run = Omega::new(quick(16)).unwrap().embed(&g).unwrap();
    let r = &run.report;
    assert_eq!(
        run.total_time(),
        r.read_time + r.factorization_time + r.propagation_time
    );
    assert!(r.spmm_time <= r.factorization_time + r.propagation_time);
    assert!(r.spmm_share() > 0.3, "SpMM share {}", r.spmm_share());
    assert!(r.spmm_count > 5);
}

#[test]
fn runs_are_deterministic() {
    let g = RmatConfig::social(256, 2_000, 12).generate_csr().unwrap();
    let a = Omega::new(quick(8)).unwrap().embed(&g).unwrap();
    let b = Omega::new(quick(8)).unwrap().embed(&g).unwrap();
    assert_eq!(a.embedding, b.embedding);
    assert_eq!(a.total_time(), b.total_time());
}

#[test]
fn capacity_failures_are_typed_not_panics() {
    let g = Dataset::Tw2010.load_scaled(8_000).unwrap();
    let topo = Topology::paper_machine_scaled(3 << 20);
    let cfg = quick(64)
        .with_topology(topo)
        .with_variant(SystemVariant::OmegaDram);
    let err = Omega::new(cfg).unwrap().embed(&g).unwrap_err();
    assert!(err.is_oom());
}

/// `omega-cli serve` validates its synthetic-table size like `plane` does:
/// `--nodes 0` exits non-zero with a one-line error, not a panic.
#[test]
fn cli_serve_rejects_zero_nodes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_omega-cli"))
        .args(["serve", "--requests", "10", "--nodes", "0", "--dim", "8"])
        .output()
        .expect("omega-cli runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --nodes must be positive (got 0)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
