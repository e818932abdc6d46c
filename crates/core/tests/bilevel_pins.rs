//! Bit pins for the bi-level trainers.
//!
//! Meta-IRM (Algorithm 1) and LightMIRM (Algorithm 2) share one
//! env-parallel epoch loop. These pins freeze the exact bits that loop
//! produces for every trainer variant — final weights as an FNV-1a digest
//! of `f64::to_bits`, plus the §III-F op ledger — on a world with seven
//! environments of several kernel chunks each, so a refactor of the loop
//! cannot move a single bit unnoticed. The kernels are bit-identical
//! across thread counts and SIMD/scalar backends, so the pins hold in
//! every cell of the CI matrix.

use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;

/// Seven environments with uneven row counts, each spanning two to three
/// `CHUNK_ROWS` chunks, so every kernel call takes the chunked path.
fn world() -> EnvDataset {
    const ROWS: [usize; 7] = [9_000, 10_000, 8_500, 12_000, 9_500, 11_000, 8_300];
    let (nnz, n_cols) = (3, 24);
    let mut idx = Vec::new();
    let mut labels = Vec::new();
    let mut envs = Vec::new();
    let mut k = 0u64;
    for (env, &n) in ROWS.iter().enumerate() {
        for _ in 0..n {
            k += 1;
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((env as u64) << 29);
            let y = ((h >> 13) % 10 < 3 + env as u64 % 4) as u8;
            for j in 0..nnz {
                idx.push(((h >> (19 + 9 * j)) % n_cols as u64) as u32);
            }
            labels.push(y);
            envs.push(env as u16);
        }
    }
    assert!(ROWS.iter().all(|&n| n > 2 * CHUNK_ROWS));
    let x = MultiHotMatrix::new(idx, nnz, n_cols).expect("well-formed");
    let names = (0..ROWS.len()).map(|e| format!("env{e}")).collect();
    EnvDataset::new(x, labels, envs, names).expect("aligned")
}

fn config(momentum: f64) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        inner_lr: 0.4,
        outer_lr: 0.9,
        lambda: 0.5,
        reg: 1e-3,
        momentum,
        seed: 31,
    }
}

/// FNV-1a over the little-endian bytes of every weight's bit pattern.
fn digest(weights: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in weights {
        for b in w.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(label, weight digest, [forward, backward, hvp])`.
type Pin = (&'static str, u64, [u64; 3]);

fn run_all(data: &EnvDataset) -> Vec<(&'static str, TrainOutput)> {
    let warm_head = LrModel {
        weights: (0..data.n_cols())
            .map(|i| 0.05 * (i as f64 - 11.5))
            .collect(),
    };
    let mut first_order = MetaIrmTrainer::new(config(0.0));
    first_order.first_order = true;
    vec![
        (
            "light/default",
            LightMirmTrainer::new(config(0.0)).fit(data, None),
        ),
        (
            "light/mrq1",
            LightMirmTrainer::with_mrq(config(0.0), 1, 0.9).fit(data, None),
        ),
        (
            "light/gamma1",
            LightMirmTrainer::with_mrq(config(0.0), 5, 1.0).fit(data, None),
        ),
        (
            "light/momentum",
            LightMirmTrainer::new(config(0.9)).fit(data, None),
        ),
        (
            "light/warm",
            LightMirmTrainer::new(config(0.0)).fit_warm(data, warm_head, None),
        ),
        (
            "meta/complete",
            MetaIrmTrainer::new(config(0.0)).fit(data, None),
        ),
        (
            "meta/pool5",
            MetaIrmTrainer::with_sample_size(config(0.0), 5).fit(data, None),
        ),
        (
            "meta/pool2",
            MetaIrmTrainer::with_sample_size(config(0.0), 2).fit(data, None),
        ),
        (
            "meta/resample5",
            MetaIrmTrainer::with_resampling(config(0.0), 5).fit(data, None),
        ),
        ("meta/first_order", first_order.fit(data, None)),
    ]
}

const PINS: [Pin; 10] = [
    ("light/default", 0x5f26052fd6bcb0fc, [42, 42, 21]),
    ("light/mrq1", 0x99a8d2e908f8294c, [42, 42, 21]),
    ("light/gamma1", 0xd9b4b718ebcb3a55, [42, 42, 21]),
    ("light/momentum", 0xd3e5e912691d3bae, [42, 42, 21]),
    ("light/warm", 0x63552501f5bd0a3a, [42, 42, 21]),
    ("meta/complete", 0x1614a7bed7741e6d, [147, 147, 21]),
    ("meta/pool5", 0x546ea4d82b357339, [111, 111, 21]),
    ("meta/pool2", 0xe39c573cdf5d69f4, [57, 57, 21]),
    ("meta/resample5", 0x2a031381b22390b8, [126, 126, 21]),
    ("meta/first_order", 0x3da6ebaf197e2f4f, [147, 147, 0]),
];

#[test]
fn bilevel_trainers_match_their_pinned_bits() {
    let data = world();
    let runs = run_all(&data);
    let actual: Vec<Pin> = runs
        .iter()
        .map(|(label, out)| {
            (
                *label,
                digest(&out.model.global().weights),
                [out.ops.forward, out.ops.backward, out.ops.hvp],
            )
        })
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(l, d, o)| format!("    ({l:?}, {d:#018x}, {o:?}),\n"))
        .collect();
    assert_eq!(actual, PINS, "actual pins:\n{rendered}");
}
