//! The correctness oracle: the same `--fast` planners the daemon
//! trains, trained in-process (training is deterministic), and the
//! exact response bytes they imply for every (device, base kernel).
//! A stamped source differs from its base kernel only by a comment, so
//! the base kernel's answer is the expected one.

use gpufreq_core::{Corpus, ModelConfig, Planner, TrainedPlanner};
use gpufreq_serve::{BatchResult, Response};
use gpufreq_sim::Device;

/// Settings per micro-benchmark `gpufreq serve --fast` trains with.
pub const FAST_SETTINGS: usize = 20;

pub struct Oracle {
    pub served: Vec<Device>,
    pub planners: Vec<TrainedPlanner>,
    /// `predict_lines[device][base]`: the whole expected response line.
    predict_lines: Vec<Vec<String>>,
    /// `slots[device][base]`: the expected `predict_batch` result slot.
    slots: Vec<Vec<String>>,
    /// `batch_frame[device]`: the batch response around its slots.
    batch_frame: Vec<(String, String)>,
}

impl Oracle {
    /// Train the fast planners for `served` on `jobs` threads and
    /// derive every expected answer for `kernels`.
    pub fn train(served: &[Device], jobs: usize, kernels: &[String]) -> Result<Oracle, String> {
        let builder = Planner::builder()
            .corpus(Corpus::Fast)
            .settings(FAST_SETTINGS)
            .model_config(ModelConfig::fast())
            .jobs(Some(jobs));
        let planners = if served.len() == Device::all().len() {
            builder.train_all_devices()
        } else {
            served
                .iter()
                .map(|&d| builder.clone().device(d).train())
                .collect()
        }
        .map_err(|e| format!("oracle training failed: {e}"))?;
        let mut oracle = Oracle {
            served: served.to_vec(),
            planners: Vec::new(),
            predict_lines: Vec::new(),
            slots: Vec::new(),
            batch_frame: Vec::new(),
        };
        for (&device, planner) in served.iter().zip(&planners) {
            let mut lines = Vec::new();
            let mut slots = Vec::new();
            for kernel in kernels {
                let prediction = planner
                    .predict_source(kernel)
                    .map_err(|e| format!("oracle cannot predict a base kernel: {e}"))?;
                let compact = prediction.to_compact_json();
                let slot = serde_json::to_string(&BatchResult::Ok(prediction.clone()))
                    .map_err(|e| e.to_string())?;
                let line = Response::Predict { device, prediction }.to_json();
                if !line.contains(&compact) || !slot.contains(&compact) {
                    return Err("the protocol does not carry the compact prediction JSON".into());
                }
                lines.push(line);
                slots.push(slot);
            }
            let empty = Response::PredictBatch {
                device,
                results: Vec::new(),
            }
            .to_json();
            let (head, tail) = empty
                .split_once("[]")
                .ok_or("unexpected empty predict_batch framing")?;
            oracle.predict_lines.push(lines);
            oracle.slots.push(slots);
            oracle
                .batch_frame
                .push((format!("{head}["), format!("]{tail}")));
        }
        oracle.planners = planners;
        oracle.self_check()?;
        Ok(oracle)
    }

    pub fn predict_line(&self, device: usize, base: usize) -> &str {
        &self.predict_lines[device][base]
    }

    /// The expected response to a `predict_batch` of `bases`.
    pub fn batch_line(&self, device: usize, bases: &[usize]) -> String {
        let (head, tail) = &self.batch_frame[device];
        let mut line = head.clone();
        for (i, &b) in bases.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&self.slots[device][b]);
        }
        line.push_str(tail);
        line
    }

    /// The spliced batch answer must survive the protocol's own parser
    /// and serializer unchanged.
    fn self_check(&self) -> Result<(), String> {
        let bases = [0, self.slots[0].len() - 1];
        let reference = Response::parse(&self.batch_line(0, &bases))
            .map_err(|e| format!("oracle batch line does not parse: {e}"))?;
        if reference.to_json() != self.batch_line(0, &bases) {
            return Err("oracle batch framing drifted from the protocol serializer".into());
        }
        Ok(())
    }
}
