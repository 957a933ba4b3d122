//! SVR training and inference cost as a function of training-set size.
//!
//! Quantifies the cost of the paper's training phase (§3.4): SMO
//! training of the linear (speedup) and RBF (energy) heads at various
//! corpus sizes, plus single-row prediction latency — the quantity that
//! makes the *static* approach attractive (prediction needs no kernel
//! execution at all). The `svr_train/fast_head` rows isolate the SMO
//! solver at the shapes a served `--fast` model trains: one memory
//! domain's heads, `ModelConfig::fast()` parameters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpufreq_core::{build_training_data, ModelConfig};
use gpufreq_ml::{train_svr, Dataset, MinMaxScaler, SvmKernel, SvrParams};
use gpufreq_sim::{Device, GpuSimulator};
use std::hint::black_box;

fn params(kernel: SvmKernel) -> SvrParams {
    // Moderate C and a tight iteration cap keep each training run
    // representative but bounded (the shape across corpus sizes is the
    // quantity of interest).
    SvrParams {
        c: 100.0,
        kernel,
        max_iter: 100_000,
        ..SvrParams::paper_speedup()
    }
}

fn bench_training(c: &mut Criterion) {
    let sim = GpuSimulator::titan_x();
    let benches = gpufreq_synth::generate_all();
    let mut group = c.benchmark_group("svr_train");
    group.sample_size(10);
    for &n_benches in &[8usize, 16, 32] {
        let subset: Vec<_> = benches.iter().take(n_benches).cloned().collect();
        let data = build_training_data(&sim, &subset, 10);
        group.bench_with_input(
            BenchmarkId::new("linear", data.speedup.len()),
            &data,
            |b, data| b.iter(|| train_svr(black_box(&data.speedup), &params(SvmKernel::Linear))),
        );
        group.bench_with_input(
            BenchmarkId::new("rbf", data.energy.len()),
            &data,
            |b, data| {
                b.iter(|| {
                    train_svr(
                        black_box(&data.energy),
                        &params(SvmKernel::Rbf { gamma: 0.1 }),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The `(speedup, energy)` datasets of `device`'s highest memory
/// domain exactly as a served `--fast` model trains them: every third
/// micro-benchmark at 20 settings, min-max scaled over all domains.
fn served_domain(device: Device) -> (Dataset, Dataset) {
    let corpus: Vec<_> = gpufreq_synth::generate_all()
        .into_iter()
        .step_by(3)
        .collect();
    let data = build_training_data(&device.simulator(), &corpus, 20);
    let scaler = MinMaxScaler::fit(data.speedup.xs());
    let mem_mhz = data.row_configs.iter().map(|c| c.mem_mhz).max();
    let (mut speedup, mut energy) = (Dataset::new(), Dataset::new());
    for (i, cfg) in data.row_configs.iter().enumerate() {
        if Some(cfg.mem_mhz) == mem_mhz {
            let (x, ys) = data.speedup.sample(i);
            speedup.push(scaler.transform(x), ys);
            energy.push(scaler.transform(x), data.energy.sample(i).1);
        }
    }
    (speedup, energy)
}

fn bench_fast_heads(c: &mut Criterion) {
    let config = ModelConfig::fast();
    let mut group = c.benchmark_group("svr_train");
    group.sample_size(10);
    for device in [Device::TitanX, Device::TeslaP100] {
        let (speedup, energy) = served_domain(device);
        for (head, data, params) in [
            ("linear", &speedup, &config.speedup),
            ("rbf", &energy, &config.energy),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("fast_head/{}/{head}", device.id()), data.len()),
                data,
                |b, data| b.iter(|| train_svr(black_box(data), params)),
            );
        }
    }
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let sim = GpuSimulator::titan_x();
    let benches: Vec<_> = gpufreq_synth::generate_all().into_iter().take(32).collect();
    let data = build_training_data(&sim, &benches, 10);
    let linear = train_svr(&data.speedup, &params(SvmKernel::Linear));
    let rbf = train_svr(&data.energy, &params(SvmKernel::Rbf { gamma: 0.1 }));
    let row = data.speedup.xs()[0].clone();
    let mut group = c.benchmark_group("svr_predict");
    group.bench_function("linear", |b| b.iter(|| linear.predict(black_box(&row))));
    group.bench_function("rbf", |b| b.iter(|| rbf.predict(black_box(&row))));
    group.finish();
}

criterion_group! {
    name = benches;
    // Short windows: these benches exist to show scaling shape, and the
    // full suite must run in minutes, not hours.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_training, bench_fast_heads, bench_prediction
}
criterion_main!(benches);
