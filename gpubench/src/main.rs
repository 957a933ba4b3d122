//! `gpubench`: the repository's benchmark. It runs one seeded workload
//! against the real `gpufreq` binaries, checks every answer against an
//! in-process oracle, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of a traced run (`--trace 1`). See
//! README.md in this directory.
//!
//! ```text
//! gpubench --gpufreq <path> --work <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gpubench compare <BENCHMARK.json> <base results> <new results>
//! ```

mod compare;
mod gen;
mod layers;
mod load;
mod oracle;
mod procs;
mod stats;

use load::{Exchange, Framed, Tally};
use oracle::Oracle;
use procs::{Cluster, Topology};
use serde::{Number, Value};
use stats::{median, Summary};
use std::borrow::Cow;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The metrics of the result line of an untraced run, as
/// `BENCHMARK.json` lists them. `latency_p99_us` is printed and recorded
/// but not listed: on a shared 2-vCPU VM its spread across seeds is
/// wider than any bound the benchmark may set (see README.md).
const END_TO_END: &[&str] = &["setup_s", "kernels_per_s", "latency_p50_us", "rss_mb"];
/// The metrics of the result line of a traced run, as `BENCHMARK.json`
/// lists them: those every workload exercises, each positive by
/// construction. The rest (cache and rejection counts, the router hop,
/// signed reconciliation rows) are printed and recorded only on the
/// workloads that exercise them.
const PER_LAYER: &[&str] = &[
    "kernel.analyze_us",
    "kernel.analyze_p99_us",
    "core.scale_us",
    "ml.score_us",
    "ml.score_p99_us",
    "pareto.reduce_us",
    "core.predict_us",
    "core.predict_p99_us",
    "core.to_json_us",
    "serve.request_parse_us",
    "serve.handle_us",
    "serve.handle_p99_us",
    "serve.client_p50_us",
    "router.split_merge_us",
    "sim.sweep_s",
    "ml.svr_fit_s",
    "ml.train_parallel_eff",
];
/// Sources per warm-up `predict_batch` in `zipf_router`.
const PREFILL_BATCH: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdLine,
    HotHttp,
    ZipfRouter,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ColdLine, Workload::HotHttp, Workload::ZipfRouter];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdLine => "cold_line",
            Workload::HotHttp => "hot_http",
            Workload::ZipfRouter => "zipf_router",
        }
    }

    /// Rounds the timed phase is split into. Every round opens fresh
    /// connections (so fresh connection threads on both sides) and a
    /// run reports the median over its rounds: on a small shared
    /// machine, how the scheduler places those threads and when the
    /// host stalls the VM set a round's figures, and one unlucky round
    /// should not move the run. Each round still holds over a thousand
    /// answers, so its p99 has ten or more beyond it.
    fn rounds(self) -> usize {
        match self {
            Workload::ColdLine | Workload::ZipfRouter => 20,
            Workload::HotHttp => 50,
        }
    }

    fn topology(self) -> Topology {
        match self {
            Workload::ColdLine => Topology::Daemon { http: false },
            Workload::HotHttp => Topology::Daemon { http: true },
            Workload::ZipfRouter => Topology::Router,
        }
    }
}

struct Args {
    gpufreq: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut gpufreq, mut work, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--gpufreq" => gpufreq = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    let args = Args {
        gpufreq: gpufreq.ok_or(missing("--gpufreq"))?,
        work: work.ok_or(missing("--work"))?,
        workload: workload.ok_or(missing("--workload"))?,
        seed: seed.ok_or(missing("--seed"))?,
        seconds: seconds.ok_or(missing("--seconds"))?,
        trace: trace.ok_or(missing("--trace"))?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// What the value rests on, for the human-readable table.
    basis: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, basis: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        basis: basis.into(),
    }
}

/// Run metadata printed with every result.
fn meta(args: &Args, nproc: usize) -> Vec<(&'static str, Value)> {
    vec![
        ("workload", Value::String(args.workload.name().into())),
        ("seed", Value::Number(Number::U64(args.seed))),
        ("seconds", Value::Number(Number::U64(args.seconds))),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::Number(Number::U64(nproc as u64))),
        // Every workload runs one client connection per core.
        ("connections", Value::Number(Number::U64(nproc as u64))),
        ("git_rev", Value::String(git_rev())),
        ("simd", Value::String(simd_path().into())),
    ]
}

/// The SIMD tier `gpufreq-ml` dispatches its SVR sweep to on this CPU,
/// by the same feature checks it makes.
fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Everything a workload's timed phase needs.
struct Ctx<'a> {
    args: &'a Args,
    nproc: usize,
    kernels: Vec<String>,
    oracle: Oracle,
}

impl Ctx<'_> {
    fn duration(&self) -> Duration {
        Duration::from_secs(self.args.seconds)
    }

    fn start(&self, k: usize) -> Result<(Cluster, f64), String> {
        let a = self.args;
        Cluster::start(
            &a.gpufreq,
            &a.work,
            a.workload.topology(),
            k,
            &self.oracle,
            &self.kernels,
        )
    }

    /// Request `i` of `cold_line` connection `conn`.
    fn cold_exchange(&self, conn: usize, i: u64) -> Exchange<'_> {
        let item = gen::cold_item(self.args.seed, conn, i, self.kernels.len());
        Exchange {
            line: item.request(&self.oracle.served, &self.kernels).to_json(),
            expected: Cow::Borrowed(self.oracle.predict_line(item.device, item.base)),
            kernels: 1,
        }
    }

    /// The `zipf_router` request for the sources of `ranks`.
    fn zipf_ranks_exchange(&self, ranks: &[usize]) -> Exchange<'_> {
        let seed = self.args.seed;
        let bases: Vec<usize> = ranks
            .iter()
            .map(|&r| gen::zipf_item(seed, r, self.kernels.len()).base)
            .collect();
        Exchange {
            line: gen::zipf_request(seed, ranks, &self.kernels).to_json(),
            expected: match bases.as_slice() {
                [base] => Cow::Borrowed(self.oracle.predict_line(0, *base)),
                _ => Cow::Owned(self.oracle.batch_line(0, &bases)),
            },
            kernels: bases.len(),
        }
    }

    /// The `zipf_router` closed loop against `addr`: the router, or one
    /// replica for the router-hop comparison.
    fn zipf_loop(&self, addr: &str) -> Result<Vec<Tally>, String> {
        let zipf = gen::Zipf::new();
        let conns = self.nproc;
        (0..self.args.workload.rounds())
            .map(|r| {
                load::closed_line(addr, conns, self.round(), |c, i| {
                    self.zipf_ranks_exchange(&zipf.ranks(self.args.seed, r * conns + c, i))
                })
            })
            .collect()
    }

    fn round(&self) -> Duration {
        self.duration() / self.args.workload.rounds() as u32
    }

    fn hot_requests(&self) -> Vec<Framed> {
        gen::hot_set(self.args.seed, self.kernels.len())
            .into_iter()
            .map(|item| Framed {
                bytes: gen::http_bytes(&item.request(&self.oracle.served, &self.kernels)),
                item,
            })
            .collect()
    }

    fn http_addr<'c>(&self, cluster: &'c Cluster) -> Result<&'c str, String> {
        cluster
            .http
            .as_deref()
            .ok_or_else(|| "the daemon has no HTTP listener".into())
    }

    /// The un-timed warm-up before a timed phase against `cluster`.
    fn warm_up(&self, cluster: &Cluster) -> Result<(), String> {
        match self.args.workload {
            Workload::ColdLine => Ok(()),
            Workload::HotHttp => {
                load::http_pass(self.http_addr(cluster)?, &self.hot_requests(), &self.oracle)
            }
            Workload::ZipfRouter => self.prefill(&cluster.front),
        }
    }

    /// The timed phase against `cluster`, as rounds that each
    /// open fresh connections and continue the seeded request streams.
    fn measure(&self, cluster: &Cluster) -> Result<Vec<Tally>, String> {
        let (seed, conns) = (self.args.seed, self.nproc);
        match self.args.workload {
            Workload::ColdLine => (0..self.args.workload.rounds())
                .map(|r| {
                    load::closed_line(&cluster.front, conns, self.round(), |c, i| {
                        self.cold_exchange(r * conns + c, i)
                    })
                })
                .collect(),
            Workload::HotHttp => {
                let addr = self.http_addr(cluster)?;
                let requests = self.hot_requests();
                (0..self.args.workload.rounds())
                    .map(|r| {
                        let orders: Vec<Vec<usize>> = (0..conns)
                            .map(|c| gen::hot_order(seed, r * conns + c))
                            .collect();
                        load::closed_http(addr, &requests, &orders, &self.oracle, self.round())
                    })
                    .collect()
            }
            Workload::ZipfRouter => self.zipf_loop(&cluster.front),
        }
    }

    /// Fill the front caches behind `addr` with the most popular
    /// sources (closed loop, batches, least popular first so the most
    /// popular are the most recently used), so the timed phase starts
    /// in steady state.
    fn prefill(&self, addr: &str) -> Result<(), String> {
        let ranks: Vec<usize> = (0..gen::REPLICAS * gen::FRONT_CACHE).rev().collect();
        let mut client = gpufreq_serve::LineClient::connect(addr).map_err(|e| e.to_string())?;
        for chunk in ranks.chunks(PREFILL_BATCH) {
            let exchange = self.zipf_ranks_exchange(chunk);
            client.send(&exchange.line).map_err(|e| e.to_string())?;
            if client.recv().map_err(|e| e.to_string())? != exchange.expected {
                return Err("a warm-up batch was answered incorrectly".into());
            }
        }
        Ok(())
    }

    /// The generated kernels the traced run times in-process: the
    /// first requests of each connection of the timed phase's first
    /// round.
    fn layer_items(&self) -> Vec<gen::Item> {
        let (seed, conns) = (self.args.seed, self.nproc as u64);
        let n = self.kernels.len();
        match self.args.workload {
            Workload::ColdLine => (0..layers::SAMPLES as u64)
                .map(|i| gen::cold_item(seed, (i % conns) as usize, i / conns, n))
                .collect(),
            Workload::HotHttp => gen::hot_set(seed, n),
            Workload::ZipfRouter => {
                let zipf = gen::Zipf::new();
                (0..layers::SAMPLES as u64)
                    .flat_map(|i| zipf.ranks(seed, (i % conns) as usize, i / conns))
                    .map(|r| gen::zipf_item(seed, r, n))
                    .collect()
            }
        }
    }
}

/// The untraced run: set up [`SETUPS`] times, measure on the last
/// set-up, and report every end-to-end metric.
fn run_end_to_end(ctx: &Ctx) -> Result<(Vec<Metric>, Tally), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        let (cluster, setup_s) = ctx.start(k)?;
        setups.push(setup_s);
        if k + 1 < SETUPS {
            cluster.stop()?;
        } else {
            last = Some(cluster);
        }
    }
    let cluster = last.expect("at least one set-up");
    ctx.warm_up(&cluster)?;
    let rounds = ctx.measure(&cluster)?;
    let rss_mb = cluster.rss_mb()?;
    let processes = cluster.processes();
    cluster.stop()?;
    let rounds_n = rounds.len();
    let of_rounds = |f: &dyn Fn(&Tally) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let kernels_per_s = of_rounds(&|t| t.kernels as f64 / t.elapsed_s);
    let p50 = of_rounds(&|t| Summary::of(&t.latency_us).p50);
    let p99 = of_rounds(&|t| Summary::of(&t.latency_us).p99);
    let least = rounds.iter().map(|t| t.latency_us.len()).min().unwrap_or(0);
    let tally = Tally::merged(rounds);
    let basis = format!(
        "median of {} rounds, >= {least} samples each, {} in all",
        rounds_n,
        tally.latency_us.len()
    );
    let metrics = vec![
        metric(
            "setup_s",
            median(&setups),
            "s",
            format!("median of {SETUPS} set-ups"),
        ),
        metric("kernels_per_s", kernels_per_s, "1/s", basis.clone()),
        metric("latency_p50_us", p50, "us", basis.clone()),
        metric("latency_p99_us", p99, "us", basis),
        metric(
            "rss_mb",
            rss_mb,
            "MB",
            format!("VmHWM summed over {processes} processes"),
        ),
    ];
    Ok((metrics, tally))
}

/// The traced run: one set-up, the timed phase with `stats` read around
/// it, then every layer timed in-process on the same generated inputs.
fn run_traced(ctx: &Ctx) -> Result<(Vec<Metric>, Tally), String> {
    let workload = ctx.args.workload;
    let (cluster, _) = ctx.start(0)?;
    ctx.warm_up(&cluster)?;
    let before = cluster.daemon_stats()?;
    let retried_before = cluster.router_retried()?;
    let tally = Tally::merged(ctx.measure(&cluster)?);
    let after = cluster.daemon_stats()?;
    let retried = cluster.router_retried()? - retried_before;
    let wire = Summary::of(&tally.latency_us);
    // The same request streams straight to one replica, for the router hop.
    let direct = if workload == Workload::ZipfRouter {
        ctx.prefill(&cluster.backends[0])?;
        let t = Tally::merged(ctx.zipf_loop(&cluster.backends[0])?);
        if t.failed > 0 {
            return Err(t.first_failure.unwrap_or_default());
        }
        Some(Summary::of(&t.latency_us))
    } else {
        None
    };
    cluster.stop()?;

    let sum = |f: &dyn Fn(&gpufreq_serve::ServerStats) -> u64| -> u64 {
        after.iter().map(f).sum::<u64>() - before.iter().map(f).sum::<u64>()
    };
    let hits = sum(&|s| s.front_cache.hits);
    let misses = sum(&|s| s.front_cache.misses);
    let evictions = sum(&|s| s.front_cache.evictions);
    let rejected = sum(&|s| s.requests.rejected);

    let items = ctx.layer_items();
    let layers = layers::request_layers(&ctx.oracle, &items, &ctx.kernels)?.summary();
    let split_merge = Summary::of(&layers::split_merge(
        &ctx.oracle,
        &items,
        &ctx.kernels,
        gen::REPLICAS,
    )?);
    let train = layers::train_layers(ctx.nproc)?;

    let us = |s: &Summary| format!("{} samples, p99 {:.1}us", s.count, s.p99);
    let median_us = |name, s: &Summary| metric(name, s.p50, "us", us(s));
    let p99_us = |name, s: &Summary| metric(name, s.p99, "us", us(s));
    let mut metrics = vec![
        median_us("kernel.analyze_us", &layers.analyze),
        p99_us("kernel.analyze_p99_us", &layers.analyze),
        median_us("core.scale_us", &layers.scale),
        median_us("ml.score_us", &layers.score),
        p99_us("ml.score_p99_us", &layers.score),
        median_us("pareto.reduce_us", &layers.reduce),
        median_us("core.predict_us", &layers.predict),
        p99_us("core.predict_p99_us", &layers.predict),
        median_us("core.to_json_us", &layers.to_json),
        median_us("serve.request_parse_us", &layers.parse),
        median_us("serve.handle_us", &layers.handle),
        p99_us("serve.handle_p99_us", &layers.handle),
        metric(
            "serve.client_p50_us",
            wire.p50,
            "us",
            format!("client-observed, timed phase, {}", us(&wire)),
        ),
        metric(
            "router.split_merge_us",
            split_merge.p50,
            "us",
            format!(
                "batches of {} of the workload's sources, {}",
                gen::BATCH_SIZE,
                us(&split_merge)
            ),
        ),
        metric(
            "sim.sweep_s",
            train.sweep_s,
            "s",
            "titan-x, fast corpus, serial",
        ),
        metric(
            "ml.svr_fit_s",
            train.fit_serial_s,
            "s",
            "titan-x, fast corpus, serial",
        ),
        metric(
            "ml.train_parallel_eff",
            train.fit_serial_s / (train.fit_parallel_s * train.jobs as f64),
            "ratio",
            format!(
                "serial {:.3}s / ({:.3}s x {} jobs)",
                train.fit_serial_s, train.fit_parallel_s, train.jobs
            ),
        ),
        metric(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            format!("{hits} hits, {misses} misses in the timed phase"),
        ),
        metric(
            "serve.cache_evictions",
            evictions as f64,
            "count",
            "in the timed phase",
        ),
        metric(
            "serve.rejected",
            rejected as f64,
            "count",
            "overloaded + quota, timed phase",
        ),
    ];
    // Both sides of these differences do the same work (a cache miss)
    // only when every source is unique.
    if workload == Workload::ColdLine {
        metrics.push(metric(
            "serve.unattributed_us",
            layers.unattributed_us,
            "us",
            "serve.handle_us - (kernel.analyze_us + core.predict_us), medians",
        ));
        metrics.push(metric(
            "serve.wire_overhead_us",
            wire.p50 - layers.handle.p50,
            "us",
            "serve.client_p50_us - serve.handle_us",
        ));
    }
    if let Some(direct) = direct {
        metrics.push(metric(
            "router.direct_p50_us",
            direct.p50,
            "us",
            format!("the same streams straight to one replica, {}", us(&direct)),
        ));
        metrics.push(metric(
            "router.hop_us",
            wire.p50 - direct.p50,
            "us",
            "serve.client_p50_us - router.direct_p50_us",
        ));
        metrics.push(metric(
            "router.retried",
            retried as f64,
            "count",
            "in the timed phase",
        ));
    }
    Ok((metrics, tally))
}

/// Every metric the result line must carry is there, once.
fn check_listed(trace: bool, metrics: &[Metric]) -> Result<(), String> {
    let listed = if trace { PER_LAYER } else { END_TO_END };
    for name in listed {
        let n = metrics.iter().filter(|m| m.name == *name).count();
        if n != 1 {
            return Err(format!("metric {name} reported {n} times"));
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(Vec<Metric>, Tally), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let kernels = gen::base_kernels();
    let served: Vec<_> = match args.workload {
        Workload::ZipfRouter => vec![gen::devices()[0]],
        _ => gen::devices().to_vec(),
    };
    let oracle = Oracle::train(&served, nproc, &kernels)?;
    let ctx = Ctx {
        args,
        nproc,
        kernels,
        oracle,
    };
    let (metrics, tally) = if args.trace {
        run_traced(&ctx)?
    } else {
        run_end_to_end(&ctx)?
    };
    check_listed(args.trace, &metrics)?;
    Ok((metrics, tally))
}

fn number(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn report(args: &Args, metrics: &[Metric], tally: &Tally) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let correct = tally.failed == 0 && tally.attempted > 0;
    let error_rate = if tally.attempted == 0 {
        1.0
    } else {
        tally.failed as f64 / tally.attempted as f64
    };
    let meta = meta(args, nproc);
    println!(
        "gpubench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &meta {
        println!("  {k:<22} {}", serde_json::to_string(v).unwrap_or_default());
    }
    println!("  {:<24} {:>14} {:<6} basis", "metric", "value", "unit");
    for m in metrics {
        println!(
            "  {:<24} {:>14.3} {:<6} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
    println!(
        "  {:<24} {:>14.6} {:<6} {} failed of {} attempted",
        "error_rate", error_rate, "ratio", tally.failed, tally.attempted
    );
    if let Some(f) = &tally.first_failure {
        println!("  first failure: {f}");
    }
    // The record carries every metric with its basis; the result line
    // only those `BENCHMARK.json` lists.
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    let metric_values = |record: bool| {
        Value::Object(
            metrics
                .iter()
                .filter(|m| record || listed.contains(&m.name))
                .map(|m| {
                    let mut entry = vec![
                        ("value", number(m.value)),
                        ("unit", Value::String(m.unit.into())),
                    ];
                    if record {
                        entry.push(("basis", Value::String(m.basis.clone())));
                    }
                    (m.name.to_string(), object(entry))
                })
                .collect(),
        )
    };
    let record = object(vec![
        ("meta", object(meta)),
        ("error_rate", number(error_rate)),
        ("attempted", Value::Number(Number::U64(tally.attempted))),
        ("failed", Value::Number(Number::U64(tally.failed))),
        ("metrics", metric_values(true)),
    ]);
    println!(
        "bench-record {}",
        serde_json::to_string(&record).unwrap_or_default()
    );
    let result = object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Number(Number::U64(tally.attempted))),
        ("failed", Value::Number(Number::U64(tally.failed))),
        ("metrics", metric_values(false)),
    ]);
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gpubench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gpubench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, tally)) => {
            // Process logs stay behind only when a run fails.
            let _ = std::fs::remove_dir_all(&args.work);
            if report(&args, &metrics, &tally) {
                ExitCode::SUCCESS
            } else {
                eprintln!("gpubench: incorrect answers; the run fails");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gpubench {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The result lines carry exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn listed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let Value::Object(entries) = &benchmark else {
                panic!("BENCHMARK.json is not an object")
            };
            let Some((_, Value::Array(rows))) = entries.iter().find(|(k, _)| k == key) else {
                panic!("BENCHMARK.json has no {key} list")
            };
            rows.iter()
                .map(|row| match row {
                    Value::Object(fields) => match fields.iter().find(|(k, _)| k == "name") {
                        Some((_, Value::String(name))) => name.clone(),
                        _ => panic!("a {key} row has no name"),
                    },
                    _ => panic!("a {key} row is not an object"),
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }
}
