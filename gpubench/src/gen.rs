//! Seeded input generation. Every request the benchmark sends is a pure
//! function of `--seed` and its position in a stream, so the same seed
//! gives byte-identical request bytes and the program under test sees
//! only those bytes. Wire framing comes from `gpufreq_serve::codec`,
//! so the generator cannot drift from the protocol.

use gpufreq_serve::codec::http_post;
use gpufreq_serve::http::Route;
use gpufreq_serve::Request;
use gpufreq_sim::Device;

/// Devices the single-daemon workloads rotate over, in `Device::all`
/// order (titan-x, tesla-p100, tesla-k20c).
pub fn devices() -> [Device; 3] {
    Device::all()
}

/// Distinct (kernel, device) pairs `hot_http` replays: far below the
/// daemon's default 4096-entry front cache, so every timed request hits.
pub const HOT_SET: usize = 192;
/// Requests each `hot_http` connection keeps in flight.
pub const HOT_WINDOW: usize = 2;
/// Front-cache entries of one daemon at its default config.
pub const FRONT_CACHE: usize = 4096;
/// Replica daemons behind the router in `zipf_router`.
pub const REPLICAS: usize = 2;
/// `zipf_router` working set: four times the replicas' combined front
/// cache, so hits, misses and evictions all occur.
pub const ZIPF_SET: usize = 4 * REPLICAS * FRONT_CACHE;
/// Zipf exponent of the source popularity in `zipf_router`.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Share of `zipf_router` requests that are a `predict_batch`.
pub const BATCH_SHARE: f64 = 0.01;
/// Sources in each `zipf_router` batch.
pub const BATCH_SIZE: usize = 4;

/// SplitMix64: tiny, seedable, and stable across platforms and
/// releases, which a benchmark's input stream must be.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream `stream` of the generator for `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed, stream, 0))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-50 for the sizes
    /// used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One stateless draw keyed by `(seed, a, b)`.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut rng = Rng(seed ^ a.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ b.rotate_left(32));
    rng.next_u64()
}

/// The base kernels requests are drawn from: the paper's 12 application
/// benchmarks plus every ninth synthetic micro-benchmark, so real
/// workloads dominate and the instruction-pattern spread stays wide.
pub fn base_kernels() -> Vec<String> {
    let mut pool: Vec<String> = gpufreq_workloads::all_workloads()
        .into_iter()
        .map(|w| w.source)
        .collect();
    pool.extend(
        gpufreq_synth::generate_all()
            .into_iter()
            .step_by(9)
            .map(|b| b.source),
    );
    pool
}

/// One kernel to predict: the device (index into the devices a
/// workload serves), the base kernel, and the unique comment stamp that
/// makes the source distinct without changing its analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub device: usize,
    pub base: usize,
    pub tag: String,
}

impl Item {
    pub fn source(&self, kernels: &[String]) -> String {
        format!("// gpubench {}\n{}", self.tag, kernels[self.base])
    }

    pub fn request(&self, served: &[Device], kernels: &[String]) -> Request {
        Request::predict(served[self.device], self.source(kernels))
    }
}

/// The `k`-th set-up probe: the first answer each set-up waits for.
pub fn probe_item(k: usize) -> Item {
    Item {
        device: 0,
        base: 0,
        tag: format!("probe.{k}"),
    }
}

/// Request `i` of `cold_line` connection `conn`: a unique source on a
/// device rotating over the three.
pub fn cold_item(seed: u64, conn: usize, i: u64, bases: usize) -> Item {
    Item {
        device: (i as usize + conn) % devices().len(),
        base: (mix(seed, 1, ((conn as u64) << 40) | i) % bases as u64) as usize,
        tag: format!("{seed:x}.{conn}.{i}"),
    }
}

/// The (kernel, device) pairs `hot_http` replays.
pub fn hot_set(seed: u64, bases: usize) -> Vec<Item> {
    (0..HOT_SET)
        .map(|j| Item {
            device: j % devices().len(),
            base: (mix(seed, 2, j as u64) % bases as u64) as usize,
            tag: format!("{seed:x}.hot.{j}"),
        })
        .collect()
}

/// The order connection `conn` replays the hot set in.
pub fn hot_order(seed: u64, conn: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..HOT_SET).collect();
    let mut rng = Rng::new(seed, 3 + conn as u64);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The source of popularity rank `rank` in `zipf_router` (titan-x only).
/// Ranks take the base kernels in turn, whatever the seed: a few ranks
/// carry much of the traffic, so drawing their kernels by seed would
/// make each seed a different mix of answer sizes and analysis costs.
pub fn zipf_item(seed: u64, rank: usize, bases: usize) -> Item {
    Item {
        device: 0,
        base: rank % bases,
        tag: format!("{seed:x}.z.{rank}"),
    }
}

/// Draws the `zipf_router` request stream: source popularity ranks
/// that follow a Zipf law over [`ZIPF_SET`] sources.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new() -> Zipf {
        let mut cdf: Vec<f64> = (1..=ZIPF_SET)
            .map(|k| (k as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let mut acc = 0.0;
        for w in cdf.iter_mut() {
            acc += *w;
            *w = acc;
        }
        for w in cdf.iter_mut() {
            *w /= acc;
        }
        Zipf { cdf }
    }

    /// The popularity ranks of request `i` of connection `conn`: one
    /// for a `predict`, [`BATCH_SIZE`] for a `predict_batch`.
    pub fn ranks(&self, seed: u64, conn: usize, i: u64) -> Vec<usize> {
        let mut rng = Rng(mix(seed, 5, ((conn as u64) << 40) | i));
        let n = if rng.unit() < BATCH_SHARE {
            BATCH_SIZE
        } else {
            1
        };
        (0..n)
            .map(|_| {
                let u = rng.unit();
                self.cdf.partition_point(|&c| c < u).min(ZIPF_SET - 1)
            })
            .collect()
    }
}

/// The line-protocol request for the sources of `ranks` (titan-x).
pub fn zipf_request(seed: u64, ranks: &[usize], kernels: &[String]) -> Request {
    let device = devices()[0];
    if let [rank] = ranks {
        return zipf_item(seed, *rank, kernels.len()).request(&[device], kernels);
    }
    Request::predict_batch(
        device,
        ranks
            .iter()
            .map(|&r| zipf_item(seed, r, kernels.len()).source(kernels))
            .collect(),
    )
}

/// Frame as one keep-alive HTTP `POST /predict`.
pub fn http_bytes(request: &Request) -> String {
    http_post(Route::Predict.as_str(), &request.to_json())
}

/// Refuse to start more generator threads and connections than the
/// machine has cores: the generator would then compete with the
/// program for CPU and measure itself.
pub fn check_fanout(wanted: usize, nproc: usize) -> Result<(), String> {
    if wanted > nproc {
        return Err(format!(
            "{wanted} generator connections requested but nproc is {nproc}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufreq_serve::codec::frame_line;

    /// Every byte a workload would send for `seed`: the first requests
    /// of each `cold_line` connection, the hot set in each connection's
    /// order, and the first requests of each `zipf_router` connection.
    fn streams(seed: u64) -> Vec<String> {
        let kernels = base_kernels();
        let served = devices();
        let mut out = Vec::new();
        for conn in 0..2 {
            for i in 0..50 {
                let item = cold_item(seed, conn, i, kernels.len());
                out.push(frame_line(&item.request(&served, &kernels)));
            }
        }
        let set = hot_set(seed, kernels.len());
        for conn in 0..2 {
            for j in hot_order(seed, conn) {
                out.push(http_bytes(&set[j].request(&served, &kernels)));
            }
        }
        let zipf = Zipf::new();
        for conn in 0..2 {
            for i in 0..100 {
                let ranks = zipf.ranks(seed, conn, i);
                out.push(frame_line(&zipf_request(seed, &ranks, &kernels)));
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        assert_eq!(streams(7), streams(7));
    }

    #[test]
    fn different_seeds_give_different_bytes() {
        let (a, b) = (streams(7), streams(8));
        assert!(!a.is_empty());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x != y),
            "every request must change with the seed"
        );
    }

    #[test]
    fn cold_sources_are_unique_and_rotate_devices() {
        let kernels = base_kernels();
        let mut seen = std::collections::HashSet::new();
        for conn in 0..2 {
            for i in 0..2000 {
                let item = cold_item(3, conn, i, kernels.len());
                assert_eq!(item.device, (i as usize + conn) % 3);
                assert!(seen.insert(item.source(&kernels)));
            }
        }
    }

    #[test]
    fn hot_set_fits_the_front_cache_and_orders_are_permutations() {
        let set = hot_set(1, base_kernels().len());
        assert!(set.len() < FRONT_CACHE);
        let mut order = hot_order(1, 0);
        assert_ne!(order, hot_order(1, 1));
        order.sort_unstable();
        assert_eq!(order, (0..HOT_SET).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_stream_has_the_stated_skew_and_batch_share() {
        let zipf = Zipf::new();
        let requests: Vec<Vec<usize>> = (0..20_000)
            .map(|i| zipf.ranks(11, (i % 2) as usize, i / 2))
            .collect();
        let batches = requests.iter().filter(|r| r.len() == BATCH_SIZE).count() as f64;
        assert!((batches / requests.len() as f64 - BATCH_SHARE).abs() < 0.01);
        let ranks: Vec<usize> = requests.concat();
        let top = ranks.iter().filter(|&&r| r < FRONT_CACHE).count() as f64;
        let tail = ranks
            .iter()
            .filter(|&&r| r >= REPLICAS * FRONT_CACHE)
            .count();
        assert!(
            top / ranks.len() as f64 > 0.5,
            "skewed towards popular sources"
        );
        assert!(tail > 0, "the tail beyond the combined caches is drawn too");
    }

    #[test]
    fn fanout_beyond_nproc_is_refused() {
        assert!(check_fanout(2, 2).is_ok());
        assert!(check_fanout(3, 2).is_err());
    }
}
