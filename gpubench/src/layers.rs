//! The traced run's in-process half: times calls into each layer's
//! public functions, from the benchmark's own code, on a workload's
//! generated requests. Nothing here runs inside the program under test.

use crate::gen::{Item, BATCH_SIZE};
use crate::oracle::{Oracle, FAST_SETTINGS};
use crate::stats::Summary;
use gpufreq_core::{
    analyze_source, build_training_data_with, Engine, FreqScalingModel, ModelConfig, MEM_L_MHZ,
};
use gpufreq_kernel::{memory_boundedness, NUM_FEATURES};
use gpufreq_pareto::{pareto_set_simple, Objectives};
use gpufreq_serve::{Request, Server, ServerConfig};
use gpufreq_sim::Device;
use std::hint::black_box;
use std::time::Instant;

/// Timed samples per layer, so a p99 has ten samples beyond it.
pub const SAMPLES: usize = 1000;

/// Per-request layer timings, in µs.
#[derive(Debug, Default)]
pub struct RequestLayers {
    pub analyze: Vec<f64>,
    pub scale: Vec<f64>,
    pub score: Vec<f64>,
    pub reduce: Vec<f64>,
    pub predict: Vec<f64>,
    pub to_json: Vec<f64>,
    pub parse: Vec<f64>,
    pub handle: Vec<f64>,
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Time the layers a cold predict crosses, once per item (cycling
/// through `items` until [`SAMPLES`] are taken).
pub fn request_layers(
    oracle: &Oracle,
    items: &[Item],
    kernels: &[String],
) -> Result<RequestLayers, String> {
    let server =
        Server::new(oracle.planners.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
    // Per device: each modeled candidate's scaled clocks and head,
    // prepared once as `PredictPlan` does at load time.
    let candidates: Vec<Vec<(f64, f64, usize)>> = oracle
        .planners
        .iter()
        .map(|planner| {
            let scorer = planner.plan().scorer();
            planner
                .simulator()
                .spec()
                .clocks
                .actual_configs()
                .into_iter()
                .filter(|c| c.mem_mhz > MEM_L_MHZ)
                .map(|c| (c.core_scaled(), c.mem_scaled(), scorer.head_index(c)))
                .collect()
        })
        .collect();
    let mut out = RequestLayers::default();
    for n in 0..SAMPLES {
        let item = &items[n % items.len()];
        let planner = &oracle.planners[item.device];
        let candidates = &candidates[item.device];
        let source = item.source(kernels);
        let line = item.request(&oracle.served, kernels).to_json();

        let t = Instant::now();
        let request = Request::parse(black_box(&line)).map_err(|e| e.message)?;
        out.parse.push(micros(t));

        let t = Instant::now();
        let (features, _) = analyze_source(black_box(&source), None).map_err(|e| e.to_string())?;
        out.analyze.push(micros(t));

        // The scale → score → reduce steps of `PredictPlan::predict`,
        // each timed on its own over the device's modeled candidates.
        let scorer = planner.plan().scorer();
        let t = Instant::now();
        let boundedness = memory_boundedness(&features);
        let mut rows = vec![0.0; candidates.len() * NUM_FEATURES];
        for (&(core, mem, _), row) in candidates.iter().zip(rows.chunks_exact_mut(NUM_FEATURES)) {
            let row: &mut [f64; NUM_FEATURES] = row.try_into().expect("row is NUM_FEATURES wide");
            scorer.write_scaled_row(&features, boundedness, core, mem, row);
        }
        out.scale.push(micros(t));

        let mut objectives = vec![Objectives::new(0.0, 0.0); candidates.len()];
        let (mut speedup, mut energy) = (Vec::new(), Vec::new());
        let mut score_us = 0.0;
        for head in 0..scorer.num_heads() {
            let owned: Vec<usize> = (0..candidates.len())
                .filter(|&i| candidates[i].2 == head)
                .collect();
            if owned.is_empty() {
                continue;
            }
            let block: Vec<f64> = owned
                .iter()
                .flat_map(|&i| {
                    rows[i * NUM_FEATURES..(i + 1) * NUM_FEATURES]
                        .iter()
                        .copied()
                })
                .collect();
            let t = Instant::now();
            scorer.score_block(head, black_box(&block), &mut speedup, &mut energy);
            score_us += micros(t);
            for (k, &i) in owned.iter().enumerate() {
                objectives[i] = Objectives::new(speedup[k], energy[k]);
            }
        }
        out.score.push(score_us);

        let t = Instant::now();
        black_box(pareto_set_simple(black_box(&objectives)));
        out.reduce.push(micros(t));

        let t = Instant::now();
        let prediction = planner
            .predict(black_box(&features))
            .map_err(|e| e.to_string())?;
        out.predict.push(micros(t));

        let t = Instant::now();
        black_box(prediction.to_compact_json());
        out.to_json.push(micros(t));

        let t = Instant::now();
        black_box(server.handle(black_box(&request)));
        out.handle.push(micros(t));
    }
    Ok(out)
}

/// The offline layers at the scale the served `--fast` models train
/// at: the simulator sweep, the SVR fit on one thread, and the same fit
/// on `jobs` threads.
#[derive(Debug, Clone, Copy)]
pub struct TrainLayers {
    pub sweep_s: f64,
    pub fit_serial_s: f64,
    pub fit_parallel_s: f64,
    pub jobs: usize,
}

pub fn train_layers(jobs: usize) -> Result<TrainLayers, String> {
    let sim = Device::TitanX.simulator();
    // `Corpus::Fast`: every third micro-benchmark.
    let corpus: Vec<_> = gpufreq_synth::generate_all()
        .into_iter()
        .step_by(3)
        .collect();
    let config = ModelConfig::fast();
    let t = Instant::now();
    let data = build_training_data_with(&Engine::serial(), &sim, &corpus, FAST_SETTINGS);
    let sweep_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let serial = FreqScalingModel::try_train_with(&Engine::serial(), &data, &config)
        .map_err(|e| e.to_string())?;
    let fit_serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parallel = FreqScalingModel::try_train_with(&Engine::new(Some(jobs)), &data, &config)
        .map_err(|e| e.to_string())?;
    let fit_parallel_s = t.elapsed().as_secs_f64();
    if serial != parallel {
        return Err("the SVR fit depends on the worker count".into());
    }
    Ok(TrainLayers {
        sweep_s,
        fit_serial_s,
        fit_parallel_s,
        jobs,
    })
}

/// `route::split_batch` + `split_results` + `merge_batch` on titan-x
/// batches of [`BATCH_SIZE`] consecutive sources of `items`, with the
/// per-replica answers the oracle expects, in µs.
pub fn split_merge(
    oracle: &Oracle,
    items: &[Item],
    kernels: &[String],
    replicas: usize,
) -> Result<Vec<f64>, String> {
    use gpufreq_router::route::{merge_batch, split_batch, split_results};
    // Device 0 is titan-x in every workload's oracle.
    let device = oracle.served[0];
    let id = device.id();
    let batches: Vec<(Vec<usize>, Vec<String>)> = items
        .chunks_exact(BATCH_SIZE)
        .map(|chunk| {
            (
                chunk.iter().map(|i| i.base).collect(),
                chunk.iter().map(|i| i.source(kernels)).collect(),
            )
        })
        .collect();
    if batches.is_empty() {
        return Err("too few items for one batch".into());
    }
    let mut out = Vec::new();
    for n in 0..SAMPLES {
        let (bases, sources) = &batches[n % batches.len()];
        let t = Instant::now();
        let shards = split_batch(device, black_box(sources), replicas);
        let split_us = micros(t);
        let answers: Vec<String> = shards
            .iter()
            .map(|idx| oracle.batch_line(0, &idx.iter().map(|&i| bases[i]).collect::<Vec<_>>()))
            .collect();
        let t = Instant::now();
        let mut slots = vec![""; sources.len()];
        for (idx, answer) in shards.iter().zip(&answers) {
            let parts = split_results(answer, id).ok_or("a backend batch answer did not split")?;
            for (&i, part) in idx.iter().zip(parts) {
                slots[i] = part;
            }
        }
        let merged = merge_batch(id, &slots);
        out.push(split_us + micros(t));
        if merged != oracle.batch_line(0, bases) {
            return Err("split/merge changed a batch answer".into());
        }
    }
    Ok(out)
}

/// Median, count and p99 of each request layer, plus the
/// reconciliation of `Server::handle` against its parts.
pub struct LayerSummary {
    pub analyze: Summary,
    pub scale: Summary,
    pub score: Summary,
    pub reduce: Summary,
    pub predict: Summary,
    pub to_json: Summary,
    pub parse: Summary,
    pub handle: Summary,
    /// `handle` p50 minus (`analyze` + `predict`) p50.
    pub unattributed_us: f64,
}

impl RequestLayers {
    pub fn summary(&self) -> LayerSummary {
        let s = |v: &Vec<f64>| Summary::of(v);
        let (analyze, predict, handle) = (s(&self.analyze), s(&self.predict), s(&self.handle));
        LayerSummary {
            analyze,
            scale: s(&self.scale),
            score: s(&self.score),
            reduce: s(&self.reduce),
            predict,
            to_json: s(&self.to_json),
            parse: s(&self.parse),
            handle,
            unattributed_us: handle.p50 - (analyze.p50 + predict.p50),
        }
    }
}
