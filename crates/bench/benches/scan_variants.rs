//! Side-by-side race of the dynamic tree's split-scan kernels (PR 6).
//!
//! The two kernels in `alic_model::dynatree::scan` are bit-identical by
//! construction (see `tests/scan_identity.rs`), so the production default
//! (`DEFAULT_SCAN_KIND`) is purely a speed choice — this bench is the
//! committed evidence behind it, and CI runs it once in smoke mode (the
//! criterion shim's `--test` pass) so the `cfg`-gated SIMD path cannot
//! bit-rot on platforms where it compiles.
//!
//! Leaf sizes cover the regimes the particle filter actually visits: small
//! fresh leaves (32), the steady-state mid-size leaves that dominate fit
//! time (128/512), and the large root-era leaves of early updates (2048).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use alic_model::dynatree::scan::{scan_left, LeafColumns, ScanKind, ATTEMPT_BATCH};

const N_DIMS: usize = 2;

/// A deterministic leaf: `len` points with pseudo-random features in
/// roughly [0, 1) and targets in roughly [-1, 2).
fn leaf(len: usize) -> LeafColumns {
    let rows: Vec<Vec<f64>> = (0..len)
        .map(|i| {
            (0..N_DIMS)
                .map(|d| ((i * 2654435761 + d * 40503 + 17) % 1000) as f64 / 1000.0)
                .collect()
        })
        .collect();
    let ys: Vec<f64> = (0..len)
        .map(|i| ((i * 1103515245 + 12345) % 3000) as f64 / 1000.0 - 1.0)
        .collect();
    let mut columns = LeafColumns::default();
    columns.fill(
        N_DIMS,
        len,
        rows.iter().map(|r| r.as_slice()).zip(ys.iter().copied()),
    );
    columns
}

fn bench_scan_kinds(c: &mut Criterion) {
    // Four live attempts, matching the default `grow_attempts`.
    let dims = [0usize, 1, 0, 1, 0, 1, 0, 1];
    let mut thresholds = [0.0f64; ATTEMPT_BATCH];
    for (k, t) in thresholds.iter_mut().enumerate() {
        *t = 0.15 + 0.1 * k as f64;
    }
    let live = 4;
    for (kind, label) in [(ScanKind::Scalar, "scalar"), (ScanKind::Simd, "simd")] {
        let mut group = c.benchmark_group(format!("scan_left_{label}"));
        for &len in &[32usize, 128, 512, 2048] {
            let columns = leaf(len);
            group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
                b.iter(|| {
                    scan_left(
                        kind,
                        black_box(&columns),
                        black_box(&dims),
                        black_box(&thresholds),
                        live,
                    )
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_scan_kinds);
criterion_main!(benches);
