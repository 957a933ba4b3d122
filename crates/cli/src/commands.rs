//! Command implementations for the `gpufreq` CLI.
//!
//! Every command routes through the typed [`Planner`] façade of
//! `gpufreq-core`: training builds a [`TrainedPlanner`] and persists a
//! versioned [`ModelArtifact`](gpufreq_core::ModelArtifact);
//! predict/evaluate load and validate it (format version, device) and
//! map any [`gpufreq_core::Error`] to a non-zero exit.

use crate::args::{Command, ParsedArgs, USAGE};
use gpufreq_core::{
    analyze_kernel_file, ascii_table, render_table2, table2, Corpus, Engine, ModelConfig, Planner,
    ProfileCache, TrainedPlanner,
};
use gpufreq_kernel::{memory_boundedness, STATIC_FEATURE_NAMES};
use gpufreq_sim::Device;
use std::io::Write;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Default `--slow-threshold-us` when `--trace-log` is given without
/// one: only requests slower than 10 ms (or errors) are logged.
const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// Open the `--trace-log` sink (a path or `stderr`), eagerly so a bad
/// path fails startup instead of silently dropping records later.
fn open_trace_log(
    sink: &str,
    slow_threshold_us: Option<u64>,
) -> Result<std::sync::Arc<gpufreq_obs::TraceLog>, String> {
    let threshold = slow_threshold_us.unwrap_or(DEFAULT_SLOW_THRESHOLD_US);
    gpufreq_obs::TraceLog::open(sink, threshold)
        .map(std::sync::Arc::new)
        .map_err(|e| format!("--trace-log {sink}: {e}"))
}

/// Dispatch a parsed command line.
pub fn dispatch(parsed: &ParsedArgs, out: &mut dyn Write) -> CmdResult {
    match &parsed.command {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Devices => devices(out),
        Command::Inspect { kernel } => inspect(kernel, out),
        Command::Train { out: path, fast } => train(parsed, path, *fast, out),
        Command::Predict {
            kernel,
            model,
            json,
        } => predict(parsed, kernel, model, *json, out),
        Command::Characterize { kernel } => characterize(parsed, kernel, out),
        Command::Sweep { kernels } => sweep(parsed, kernels, out),
        Command::Evaluate { model } => evaluate(parsed, model, out),
        Command::Report {
            full,
            out: dir,
            check,
        } => report(parsed, *full, dir, check.as_deref(), out),
        Command::Serve {
            port,
            fast,
            workers,
            queue,
            cache,
            port_file,
            http_port,
            http_port_file,
            max_conns,
            p99_target_us,
            quota,
            trace_log,
            slow_threshold_us,
        } => serve(
            parsed,
            &ServeOpts {
                port: *port,
                fast: *fast,
                workers: *workers,
                queue: *queue,
                cache: *cache,
                port_file: port_file.as_deref(),
                http_port: *http_port,
                http_port_file: http_port_file.as_deref(),
                max_conns: *max_conns,
                p99_target_us: *p99_target_us,
                quota: *quota,
                trace_log: trace_log.as_deref(),
                slow_threshold_us: *slow_threshold_us,
            },
            out,
        ),
        Command::Router {
            port,
            backends,
            port_file,
            http_port,
            http_port_file,
            max_conns,
            trace_log,
            slow_threshold_us,
        } => router(
            &RouterOpts {
                port: *port,
                backends,
                port_file: port_file.as_deref(),
                http_port: *http_port,
                http_port_file: http_port_file.as_deref(),
                max_conns: *max_conns,
                trace_log: trace_log.as_deref(),
                slow_threshold_us: *slow_threshold_us,
            },
            out,
        ),
        Command::Client {
            addr,
            kernel,
            stats,
            reload,
            shutdown,
            record,
        } => client(
            parsed,
            addr,
            &ClientOpts {
                kernel: kernel.as_deref(),
                stats: *stats,
                reload: reload.as_deref(),
                shutdown: *shutdown,
                record: record.as_deref(),
            },
            out,
        ),
        Command::Analyze {
            json,
            check,
            report,
            paths,
        } => analyze(*json, *check, report.as_deref(), paths, out),
    }
}

/// Run the in-repo static-analysis pass: scan the default
/// `crates/*/src` + `src/` set (or the given paths), print findings
/// (human lines or `--json`), optionally render the `ANALYSIS.md`
/// census with `--report`, and — with `--check` — exit nonzero when
/// any unsuppressed finding remains.
fn analyze(
    json: bool,
    check: bool,
    report: Option<&str>,
    paths: &[String],
    out: &mut dyn Write,
) -> CmdResult {
    use std::path::{Path, PathBuf};
    let root = std::env::current_dir()?;
    let files: Vec<PathBuf> = if paths.is_empty() {
        gpufreq_analyze::default_file_set(&root)
            .map_err(|e| format!("collecting default scan set under {}: {e}", root.display()))?
    } else {
        let mut files = Vec::new();
        for path in paths {
            let p = Path::new(path);
            if p.is_dir() {
                let mut sub = Vec::new();
                collect_rs_under(p, &mut sub).map_err(|e| format!("{path}: {e}"))?;
                files.extend(sub);
            } else {
                files.push(p.to_path_buf());
            }
        }
        files.sort();
        files
    };
    let analysis = gpufreq_analyze::analyze_files(&root, &files)?;
    let active = analysis.active_findings().count();
    if json {
        writeln!(out, "{}", analysis.to_json())?;
    } else {
        for finding in &analysis.findings {
            writeln!(out, "{finding}")?;
        }
        writeln!(
            out,
            "analyzed {} file(s): {} finding(s) ({} suppressed), {} unsafe site(s), \
             {} atomic ordering site(s)",
            analysis.files.len(),
            active,
            analysis.findings.len() - active,
            analysis.unsafe_sites.len(),
            analysis.atomic_sites.len()
        )?;
    }
    if let Some(path) = report {
        std::fs::write(path, gpufreq_analyze::report::render_markdown(&analysis))
            .map_err(|e| format!("{path}: {e}"))?;
        if !json {
            writeln!(out, "wrote {path}")?;
        }
    }
    if check && active > 0 {
        return Err(format!("analyze --check failed: {active} unsuppressed finding(s)").into());
    }
    Ok(())
}

/// Recursively collect `.rs` files under an explicitly named
/// directory, sorted for deterministic output.
fn collect_rs_under(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn devices(out: &mut dyn Write) -> CmdResult {
    let mut rows = Vec::new();
    for device in Device::all() {
        let spec = device.spec();
        rows.push(vec![
            device.id().to_string(),
            spec.name.clone(),
            spec.clocks.supported_memory_clocks().len().to_string(),
            spec.clocks.actual_configs().len().to_string(),
            format!("{}", spec.clocks.default),
        ]);
    }
    write!(
        out,
        "{}",
        ascii_table(
            &[
                "id",
                "device",
                "memory domains",
                "configurations",
                "default"
            ],
            &rows
        )
    )?;
    Ok(())
}

fn inspect(path: &str, out: &mut dyn Write) -> CmdResult {
    let (features, profile) = analyze_kernel_file(path)?;
    writeln!(
        out,
        "kernel `{}` ({} instructions per work-item)",
        profile.name,
        profile.counts.total()
    )?;
    let mut rows = Vec::new();
    for (name, value) in STATIC_FEATURE_NAMES.iter().zip(features.values()) {
        rows.push(vec![name.to_string(), format!("{value:.4}")]);
    }
    rows.push(vec![
        "memory-boundedness".to_string(),
        format!("{:.4}", memory_boundedness(&features)),
    ]);
    write!(out, "{}", ascii_table(&["feature", "share"], &rows))?;
    writeln!(
        out,
        "global traffic: {:.1} B read, {:.1} B written per work-item",
        profile.global_read_bytes, profile.global_write_bytes
    )?;
    Ok(())
}

fn train(parsed: &ParsedArgs, path: &str, fast: bool, out: &mut dyn Write) -> CmdResult {
    let device = parsed.device_or_default();
    let (corpus, settings, config) = if fast {
        (Corpus::Fast, parsed.settings.min(20), ModelConfig::fast())
    } else {
        (Corpus::Full, parsed.settings, ModelConfig::default())
    };
    writeln!(
        out,
        "training on corpus {corpus:?} x {settings} settings ({})...",
        device.spec().name
    )?;
    let planner = Planner::builder()
        .device(device)
        .corpus(corpus)
        .settings(settings)
        .model_config(config)
        .jobs(parsed.jobs)
        .train()?;
    planner.save(path)?;
    let (sv_s, sv_e) = planner.model().support_vectors();
    writeln!(
        out,
        "trained on {} samples ({sv_s}/{sv_e} support vectors); model written to {path}",
        planner.model().trained_on()
    )?;
    Ok(())
}

/// Load a model artifact, honoring an explicit `--device`: when given,
/// the artifact must have been trained on that device (a typed
/// mismatch error otherwise); when omitted, the artifact's own device
/// is used.
fn load_planner(parsed: &ParsedArgs, path: &str) -> Result<TrainedPlanner, gpufreq_core::Error> {
    let planner = match parsed.device {
        Some(device) => TrainedPlanner::load_for_device(path, device),
        None => TrainedPlanner::load(path),
    }?;
    Ok(planner.with_jobs(parsed.jobs))
}

fn predict(
    parsed: &ParsedArgs,
    kernel: &str,
    model_path: &str,
    json: bool,
    out: &mut dyn Write,
) -> CmdResult {
    let planner = load_planner(parsed, model_path)?;
    let (features, _) = analyze_kernel_file(kernel)?;
    let prediction = planner.predict(&features)?;
    if json {
        writeln!(out, "{}", serde_json::to_string_pretty(&prediction)?)?;
        return Ok(());
    }
    let mut rows = Vec::new();
    for p in &prediction.pareto_set {
        rows.push(vec![
            p.config.mem_mhz.to_string(),
            p.config.core_mhz.to_string(),
            format!("{:.3}", p.objectives.speedup),
            format!("{:.3}", p.objectives.energy),
            if p.heuristic {
                "mem-L heuristic".to_string()
            } else {
                String::new()
            },
        ]);
    }
    writeln!(
        out,
        "predicted Pareto-optimal frequency settings for `{kernel}` on {}:",
        planner.device()
    )?;
    write!(
        out,
        "{}",
        ascii_table(
            &["mem MHz", "core MHz", "speedup", "norm. energy", "note"],
            &rows
        )
    )?;
    Ok(())
}

fn characterize(parsed: &ParsedArgs, kernel: &str, out: &mut dyn Write) -> CmdResult {
    let sim = parsed.device_or_default().simulator();
    let (_, profile) = analyze_kernel_file(kernel)?;
    let configs = sim.spec().clocks.sample_configs(parsed.settings);
    let c = sim.characterize_at(&profile, &configs);
    let mut rows = Vec::new();
    for p in &c.points {
        rows.push(vec![
            p.config().mem_mhz.to_string(),
            p.config().core_mhz.to_string(),
            format!("{:.3}", p.measurement.time_ms),
            format!("{:.1}", p.measurement.avg_power_w),
            format!("{:.3}", p.speedup),
            format!("{:.3}", p.norm_energy),
        ]);
    }
    writeln!(
        out,
        "measured sweep of `{kernel}` on {} ({} settings):",
        sim.spec().name,
        rows.len()
    )?;
    write!(
        out,
        "{}",
        ascii_table(
            &[
                "mem MHz",
                "core MHz",
                "time ms",
                "power W",
                "speedup",
                "norm. energy"
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "simulated sweep cost: {:.1} minutes",
        c.sim_wall_s() / 60.0
    )?;
    Ok(())
}

/// Batch-characterize several kernels: analyses go through one shared
/// [`ProfileCache`] (a path passed twice — or two files with identical
/// source — is parsed once) and the per-kernel frequency sweeps fan
/// out over the [`Engine`], with results reported in input order.
fn sweep(parsed: &ParsedArgs, kernels: &[String], out: &mut dyn Write) -> CmdResult {
    let sim = parsed.device_or_default().simulator();
    let engine = Engine::new(parsed.jobs);
    let cache = ProfileCache::new();
    let configs = sim.spec().clocks.sample_configs(parsed.settings);
    // Read + analyze up front (I/O and the shared cache), sweep in
    // parallel; any unreadable or malformed kernel fails the command
    // before simulated minutes are spent on the others.
    let mut profiles = Vec::with_capacity(kernels.len());
    for path in kernels {
        let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let analyzed = cache.analyze(&source).map_err(|e| format!("{path}: {e}"))?;
        profiles.push(analyzed);
    }
    let inner_sim = sim.clone().with_jobs(engine.inner(profiles.len()).jobs());
    let characterizations = engine.map(&profiles, |analyzed| {
        inner_sim.characterize_at(&analyzed.1, &configs)
    });
    let mut rows = Vec::new();
    for (path, c) in kernels.iter().zip(&characterizations) {
        let best_speedup = c
            .points
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .expect("sweep has points");
        let min_energy = c
            .points
            .iter()
            .min_by(|a, b| a.norm_energy.total_cmp(&b.norm_energy))
            .expect("sweep has points");
        rows.push(vec![
            path.clone(),
            c.kernel.clone(),
            format!("{} @ {:.3}x", best_speedup.config(), best_speedup.speedup),
            format!("{} @ {:.3}", min_energy.config(), min_energy.norm_energy),
            format!("{:.1}", c.sim_wall_s() / 60.0),
        ]);
    }
    writeln!(
        out,
        "swept {} kernel(s) on {} ({} settings, {} analysis cache hit(s)):",
        kernels.len(),
        sim.spec().name,
        configs.len(),
        cache.hits(),
    )?;
    write!(
        out,
        "{}",
        ascii_table(
            &[
                "file",
                "kernel",
                "max speedup",
                "min energy",
                "simulated min"
            ],
            &rows
        )
    )?;
    Ok(())
}

fn evaluate(parsed: &ParsedArgs, model_path: &str, out: &mut dyn Write) -> CmdResult {
    let planner = load_planner(parsed, model_path)?;
    let evals = planner.evaluate()?;
    write!(out, "{}", render_table2(&table2(&evals)))?;
    Ok(())
}

/// Generate the reproduction report: run the fast (golden) or full
/// (paper-parameter) pipeline, write `REPRODUCTION.md` +
/// `reproduction.json` into `dir`, and — with `--check` — fail when
/// any metric regressed from pass to FAIL tier relative to a baseline
/// `reproduction.json`.
fn report(
    parsed: &ParsedArgs,
    full: bool,
    dir: &str,
    check: Option<&str>,
    out: &mut dyn Write,
) -> CmdResult {
    use gpufreq_bench::report::{generate, render, ReportOptions};
    let opts = ReportOptions {
        full,
        jobs: parsed.jobs,
        // An empty value means unset — CI pins `GPUFREQ_GIT_REV: ""`
        // so the regenerated report is byte-comparable to the
        // checked-in copy regardless of the runner's environment.
        git_revision: std::env::var("GPUFREQ_GIT_REV")
            .ok()
            .filter(|rev| !rev.is_empty()),
    };
    writeln!(
        out,
        "generating {} reproduction report (this {})...",
        if full { "full paper-parameter" } else { "fast" },
        if full {
            "trains at C = 1000 and takes minutes"
        } else {
            "takes seconds"
        }
    )?;
    let report = generate(&opts)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let md_path = std::path::Path::new(dir).join(render::MARKDOWN_FILE);
    let json_path = std::path::Path::new(dir).join(render::JSON_FILE);
    std::fs::write(&md_path, render::render_markdown(&report))
        .map_err(|e| format!("{}: {e}", md_path.display()))?;
    std::fs::write(&json_path, render::render_json(&report))
        .map_err(|e| format!("{}: {e}", json_path.display()))?;
    writeln!(
        out,
        "scoreboard: {} pass, {} warn, {} FAIL across {} sections",
        report.summary.pass,
        report.summary.warn,
        report.summary.fail,
        report.sections.len()
    )?;
    writeln!(out, "wrote {}", md_path.display())?;
    writeln!(out, "wrote {}", json_path.display())?;
    if let Some(baseline_path) = check {
        let baseline_json =
            std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
        let baseline =
            render::parse_json(&baseline_json).map_err(|e| format!("{baseline_path}: {e}"))?;
        let regressions = render::tier_regressions(&baseline, &report);
        if regressions.is_empty() {
            writeln!(
                out,
                "no pass\u{2192}FAIL tier regressions against {baseline_path}"
            )?;
        } else {
            for regression in &regressions {
                writeln!(out, "tier regression: {regression}")?;
            }
            return Err(format!(
                "{} metric(s) regressed from pass to FAIL tier against {baseline_path}",
                regressions.len()
            )
            .into());
        }
    }
    Ok(())
}

/// The `serve` knobs, bundled so the runner's signature stays sane.
struct ServeOpts<'a> {
    port: u16,
    fast: bool,
    workers: Option<usize>,
    queue: Option<usize>,
    cache: Option<usize>,
    port_file: Option<&'a str>,
    http_port: Option<u16>,
    http_port_file: Option<&'a str>,
    max_conns: Option<usize>,
    p99_target_us: Option<u64>,
    quota: Option<(u32, u32)>,
    trace_log: Option<&'a str>,
    slow_threshold_us: Option<u64>,
}

/// Train planners for the served devices, bind the TCP listener (plus
/// the HTTP gateway listener when `--http-port` is given), and run the
/// daemon until a `shutdown` request drains it; the final metrics
/// summary is printed on exit. `--device` narrows serving to one
/// device (default: every registered device); port 0 binds a free port
/// — bound addresses are printed (and written to `--port-file` /
/// `--http-port-file` when given) before serving starts.
fn serve(parsed: &ParsedArgs, opts: &ServeOpts<'_>, out: &mut dyn Write) -> CmdResult {
    use gpufreq_serve::{render_stats_table, AdmissionConfig, Quota, Server, ServerConfig};
    let (corpus, settings, config) = if opts.fast {
        (Corpus::Fast, parsed.settings.min(20), ModelConfig::fast())
    } else {
        (Corpus::Full, parsed.settings, ModelConfig::default())
    };
    let builder = Planner::builder()
        .corpus(corpus)
        .settings(settings)
        .model_config(config)
        .jobs(parsed.jobs);
    let planners = match parsed.device {
        Some(device) => {
            writeln!(
                out,
                "training 1 model (corpus {corpus:?} x {settings} settings, {})...",
                device.spec().name
            )?;
            vec![builder.device(device).train()?]
        }
        None => {
            writeln!(
                out,
                "training {} models (corpus {corpus:?} x {settings} settings, all devices)...",
                Device::all().len()
            )?;
            builder.train_all_devices()?
        }
    };
    let defaults = ServerConfig::default();
    let mut server = Server::new(
        planners,
        ServerConfig {
            workers: opts.workers.unwrap_or(defaults.workers),
            queue_capacity: opts.queue.unwrap_or(defaults.queue_capacity),
            cache_capacity: opts.cache.unwrap_or(defaults.cache_capacity),
            max_connections: opts.max_conns.unwrap_or(defaults.max_connections),
            admission: AdmissionConfig {
                p99_target_us: opts.p99_target_us,
                quota: opts.quota.map(|(rate_per_sec, burst)| Quota {
                    rate_per_sec,
                    burst,
                }),
            },
        },
    )?;
    if let Some(sink) = opts.trace_log {
        server.set_trace_log(open_trace_log(sink, opts.slow_threshold_us)?);
    }
    let listener = std::net::TcpListener::bind(("127.0.0.1", opts.port))?;
    let addr = listener.local_addr()?;
    if let Some(path) = opts.port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    let http_listener = match opts.http_port {
        Some(port) => Some(std::net::TcpListener::bind(("127.0.0.1", port))?),
        None => None,
    };
    writeln!(
        out,
        "listening on {addr} (devices: {})",
        server
            .devices()
            .iter()
            .map(|d| d.id())
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    if let Some(http) = &http_listener {
        let http_addr = http.local_addr()?;
        if let Some(path) = opts.http_port_file {
            std::fs::write(path, format!("{http_addr}\n")).map_err(|e| format!("{path}: {e}"))?;
        }
        writeln!(out, "HTTP gateway on http://{http_addr}")?;
    }
    // The lines must be visible to whoever is scripting us *before* we
    // block in the accept loop.
    out.flush()?;
    let summary = server.serve_with_http(listener, http_listener)?;
    writeln!(out, "shutdown complete; final metrics:")?;
    write!(out, "{}", render_stats_table(&summary))?;
    Ok(())
}

/// The `router` knobs, bundled like [`ServeOpts`].
struct RouterOpts<'a> {
    port: u16,
    backends: &'a [String],
    port_file: Option<&'a str>,
    http_port: Option<u16>,
    http_port_file: Option<&'a str>,
    max_conns: Option<usize>,
    trace_log: Option<&'a str>,
    slow_threshold_us: Option<u64>,
}

/// Stand up the device-sharded router: parse the `--backend` specs,
/// discover (or trust) each backend's device set, bind the client
/// listeners, and route until a `shutdown` request drains it. Like
/// `serve`, port 0 binds a free port and the bound addresses are
/// printed (and written to the port files) before accepting starts.
fn router(opts: &RouterOpts<'_>, out: &mut dyn Write) -> CmdResult {
    use gpufreq_router::{BackendSpec, Router, RouterConfig};
    let mut config = RouterConfig::default();
    for spec in opts.backends {
        let parsed: BackendSpec = spec.parse().map_err(|e| format!("--backend {spec}: {e}"))?;
        config.backends.push(parsed);
    }
    if let Some(max) = opts.max_conns {
        config.max_connections = max;
    }
    let mut router = Router::new(config)?;
    if let Some(sink) = opts.trace_log {
        router.set_trace_log(open_trace_log(sink, opts.slow_threshold_us)?);
    }
    let router = router;
    let listener = std::net::TcpListener::bind(("127.0.0.1", opts.port))?;
    let addr = listener.local_addr()?;
    if let Some(path) = opts.port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    let http_listener = match opts.http_port {
        Some(port) => Some(std::net::TcpListener::bind(("127.0.0.1", port))?),
        None => None,
    };
    writeln!(
        out,
        "routing on {addr} (devices: {}; {} backend(s))",
        router
            .devices()
            .iter()
            .map(|d| d.id())
            .collect::<Vec<_>>()
            .join(", "),
        opts.backends.len()
    )?;
    if let Some(http) = &http_listener {
        let http_addr = http.local_addr()?;
        if let Some(path) = opts.http_port_file {
            std::fs::write(path, format!("{http_addr}\n")).map_err(|e| format!("{path}: {e}"))?;
        }
        writeln!(out, "HTTP gateway on http://{http_addr}")?;
    }
    // The lines must be visible to whoever is scripting us *before* we
    // block in the accept loop.
    out.flush()?;
    let summary = router.serve_with_http(listener, http_listener)?;
    writeln!(
        out,
        "shutdown complete; routed {} request(s) ({} retried, {} circuit-rejected, {} malformed)",
        summary.counters.routed,
        summary.counters.retried,
        summary.counters.broken_circuit,
        summary.counters.malformed
    )?;
    for backend in &summary.backends {
        writeln!(
            out,
            "  backend {} [{}] {}: {} request(s), {} failure(s)",
            backend.addr,
            backend.devices.join(", "),
            backend.state,
            backend.requests,
            backend.failures
        )?;
    }
    Ok(())
}

/// The `client` operations, bundled like [`ServeOpts`].
struct ClientOpts<'a> {
    kernel: Option<&'a str>,
    stats: bool,
    reload: Option<&'a str>,
    shutdown: bool,
    record: Option<&'a str>,
}

/// One-shot protocol client: connect, send the requested operations in
/// order (`--reload`, then predict, then `--stats`, then
/// `--shutdown`), and echo each raw JSON response line. Any error
/// response exits non-zero. With `--record`, every exchange is
/// appended to the trace file as one `{"send":...,"recv":...}` line —
/// the acceptance-harness format.
fn client(
    parsed: &ParsedArgs,
    addr: &str,
    opts: &ClientOpts<'_>,
    out: &mut dyn Write,
) -> CmdResult {
    use gpufreq_serve::codec::TraceEntry;
    use gpufreq_serve::{Request, Response};
    use std::io::BufRead as _;
    let ClientOpts {
        kernel,
        stats,
        reload,
        shutdown,
        record,
    } = *opts;
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone()?;
    let mut reader = std::io::BufReader::new(stream);
    let mut trace = match record {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?,
        ),
        None => None,
    };
    let mut requests = Vec::new();
    if let Some(path) = reload {
        // The path is resolved by the *server* process — pass it
        // absolute so the swap does not depend on the daemon's cwd.
        let path = std::path::Path::new(path)
            .canonicalize()
            .map_err(|e| format!("{path}: {e}"))?;
        requests.push(Request::Reload {
            device: parsed.device_or_default().id().to_string(),
            path: path.to_string_lossy().into_owned(),
        });
    }
    if let Some(path) = kernel {
        let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        requests.push(Request::Predict {
            device: parsed.device_or_default().id().to_string(),
            source,
        });
    }
    if stats {
        requests.push(Request::Stats);
    }
    if shutdown {
        requests.push(Request::Shutdown);
    }
    for request in requests {
        let sent = request.to_json();
        writeln!(writer, "{sent}")?;
        writer.flush()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(format!("server closed the connection before answering {addr}").into());
        }
        let line = line.trim();
        writeln!(out, "{line}")?;
        if let Some(file) = &mut trace {
            let entry = TraceEntry {
                send: sent,
                recv: line.to_string(),
            };
            writeln!(file, "{}", entry.to_json())?;
        }
        let response = Response::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
        if let Some(error) = response.error() {
            return Err(format!("server error: {error}").into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {

    use crate::run;
    use gpufreq_core::{ModelArtifact, TrainedPlanner};
    use gpufreq_sim::Device;

    fn run_str(line: &str) -> (i32, String) {
        let argv: Vec<String> = line.split_whitespace().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&argv, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    fn write_kernel() -> String {
        let dir = std::env::temp_dir().join("gpufreq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("saxpy.cl");
        std::fs::write(
            &path,
            "__kernel void saxpy(__global float* x, __global float* y, float a) {
                uint i = get_global_id(0);
                y[i] = a * x[i] + y[i];
            }",
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn devices_lists_all_three() {
        let (code, out) = run_str("devices");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("GTX Titan X"));
        assert!(out.contains("Tesla P100"));
        assert!(out.contains("Tesla K20c"));
    }

    #[test]
    fn inspect_prints_features() {
        let kernel = write_kernel();
        let (code, out) = run_str(&format!("inspect {kernel}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("float_mul"));
        assert!(out.contains("gl_access"));
        assert!(out.contains("memory-boundedness"));
    }

    #[test]
    fn characterize_runs_a_sweep() {
        let kernel = write_kernel();
        let (code, out) = run_str(&format!("characterize {kernel} --settings 6"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("speedup"));
        assert!(out.contains("simulated sweep cost"));
    }

    #[test]
    fn sweep_reports_all_kernels_in_input_order_with_cache_hits() {
        let kernel = write_kernel();
        // The same path twice: the second analysis is a cache hit; both
        // still get their own row, and serial/parallel output is
        // byte-identical.
        let line = format!("sweep {kernel} {kernel} --settings 6 --jobs 2");
        let (code, out) = run_str(&line);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("swept 2 kernel(s)"), "{out}");
        assert!(out.contains("1 analysis cache hit(s)"), "{out}");
        assert!(out.contains("saxpy"), "{out}");
        let (code, serial_out) = run_str(&format!("sweep {kernel} {kernel} --settings 6 --jobs 1"));
        assert_eq!(code, 0);
        assert_eq!(serial_out, out, "sweep output must not depend on --jobs");
    }

    #[test]
    fn sweep_fails_cleanly_on_missing_or_bad_kernels() {
        let (code, out) = run_str("sweep /does/not/exist.cl");
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("/does/not/exist.cl"), "{out}");
        let (code, out) = run_str("sweep");
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("USAGE"), "{out}");
    }

    #[test]
    fn train_then_predict_round_trip() {
        let kernel = write_kernel();
        let model = std::env::temp_dir().join("gpufreq-cli-test/model.json");
        let model = model.to_string_lossy();
        let (code, out) = run_str(&format!("train --fast --settings 12 --out {model}"));
        assert_eq!(code, 0, "{out}");
        // The persisted file is a versioned, device-tagged artifact.
        let artifact = ModelArtifact::load(model.as_ref() as &str).unwrap();
        assert_eq!(artifact.device, Device::TitanX);
        let (code, out) = run_str(&format!("predict {kernel} --model {model}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Pareto-optimal"));
        assert!(out.contains("mem-L heuristic"));
        // JSON mode parses back.
        let (code, out) = run_str(&format!("predict {kernel} --model {model} --json"));
        assert_eq!(code, 0, "{out}");
        assert!(serde_json::from_str::<serde_json::Value>(&out).is_ok());
        // An explicit matching --device is fine; a different one is a
        // typed mismatch mapped to a non-zero exit.
        let (code, _) = run_str(&format!(
            "predict {kernel} --model {model} --device titan-x"
        ));
        assert_eq!(code, 0);
        let (code, out) = run_str(&format!(
            "predict {kernel} --model {model} --device tesla-p100"
        ));
        assert_eq!(code, 1, "{out}");
        assert!(
            out.contains("trained on `titan-x`") && out.contains("`tesla-p100`"),
            "{out}"
        );
    }

    #[test]
    fn unknown_device_exits_nonzero_listing_valid_ids() {
        // Regression: the `teslap100` typo used to silently fall back
        // to the Titan X.
        let (code, out) = run_str("train --device teslap100");
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown device `teslap100`"), "{out}");
        assert!(
            out.contains("valid devices: titan-x, tesla-p100, tesla-k20c"),
            "{out}"
        );
    }

    #[test]
    fn legacy_and_corrupt_models_error_clearly() {
        let kernel = write_kernel();
        let dir = std::env::temp_dir().join("gpufreq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Pre-versioning bare-model JSON (no format_version envelope).
        let legacy = dir.join("legacy.json");
        std::fs::write(&legacy, "{\"domains\": [], \"scaler\": {}}").unwrap();
        let (code, out) = run_str(&format!(
            "predict {kernel} --model {}",
            legacy.to_string_lossy()
        ));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("legacy model file"), "{out}");
        // Outright corrupt JSON.
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{not json").unwrap();
        let (code, out) = run_str(&format!(
            "predict {kernel} --model {}",
            corrupt.to_string_lossy()
        ));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("malformed model artifact"), "{out}");
    }

    #[test]
    fn evaluate_honors_artifact_device() {
        // Train a fast P100 model via the facade and evaluate without
        // --device: the artifact's own device must be used.
        let dir = std::env::temp_dir().join("gpufreq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p100-eval.json");
        let planner = gpufreq_core::Planner::builder()
            .device(Device::TeslaP100)
            .corpus(gpufreq_core::Corpus::Fast)
            .settings(8)
            .model_config(fast_config())
            .train()
            .unwrap();
        planner.save(&path).unwrap();
        let loaded = TrainedPlanner::load(&path).unwrap();
        assert_eq!(loaded.device(), Device::TeslaP100);
        let (code, out) = run_str(&format!("evaluate --model {}", path.to_string_lossy()));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Benchmark"), "{out}");
    }

    fn fast_config() -> gpufreq_core::ModelConfig {
        use gpufreq_ml::SvrParams;
        gpufreq_core::ModelConfig {
            speedup: SvrParams {
                c: 10.0,
                max_iter: 100_000,
                ..SvrParams::paper_speedup()
            },
            energy: SvrParams {
                c: 10.0,
                max_iter: 100_000,
                ..SvrParams::paper_energy()
            },
        }
    }

    #[test]
    fn client_round_trips_against_a_running_server() {
        use gpufreq_serve::{Server, ServerConfig};
        use std::sync::Arc;
        let planner = gpufreq_core::Planner::builder()
            .corpus(gpufreq_core::Corpus::Fast)
            .settings(6)
            .model_config(fast_config())
            .train()
            .unwrap();
        // Persist the same model so `--reload` has an artifact to swap
        // in mid-run.
        let dir = std::env::temp_dir().join("gpufreq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("reload-artifact.json");
        planner.save(&artifact).unwrap();
        let server = Arc::new(
            Server::new(
                vec![planner],
                ServerConfig {
                    workers: 2,
                    ..ServerConfig::default()
                },
            )
            .unwrap(),
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve(listener).unwrap())
        };
        // Predict for a kernel file; the raw JSON response is echoed.
        let kernel = write_kernel();
        let (code, out) = run_str(&format!("client {addr} {kernel}"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"ok\":\"predict\""), "{out}");
        assert!(out.contains("\"device\":\"titan-x\""), "{out}");
        // Predicting for an unserved device is the server's typed
        // error, surfaced as a non-zero client exit.
        let (code, out) = run_str(&format!("client {addr} {kernel} --device tesla-k20c"));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("device_not_served"), "{out}");
        // Hot-reload the serving model from the saved artifact, then
        // predict again on the swapped-in model.
        let (code, out) = run_str(&format!(
            "client {addr} {kernel} --reload {}",
            artifact.to_string_lossy()
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"ok\":\"reload\""), "{out}");
        assert!(out.contains("\"version\":2"), "{out}");
        assert!(out.contains("\"ok\":\"predict\""), "{out}");
        // Stats + shutdown drain the daemon cleanly.
        let (code, out) = run_str(&format!("client {addr} --stats --shutdown"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"ok\":\"stats\""), "{out}");
        assert!(out.contains("\"ok\":\"shutdown\""), "{out}");
        let summary = daemon.join().unwrap();
        assert!(summary.requests.total >= 4);
        // A client against the now-stopped server fails to connect.
        let (code, out) = run_str(&format!("client {addr} --stats"));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("connect"), "{out}");
    }

    #[test]
    fn router_fronts_replicated_backends_and_records_traces() {
        use gpufreq_serve::{Server, ServerConfig};
        use std::sync::Arc;
        let planner = gpufreq_core::Planner::builder()
            .corpus(gpufreq_core::Corpus::Fast)
            .settings(6)
            .model_config(fast_config())
            .train()
            .unwrap();
        // Two replicas of the same titan-x model behind one router.
        let mut backends = Vec::new();
        let mut daemons = Vec::new();
        for _ in 0..2 {
            let server = Arc::new(
                Server::new(
                    vec![planner.clone()],
                    ServerConfig {
                        workers: 2,
                        ..ServerConfig::default()
                    },
                )
                .unwrap(),
            );
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            backends.push(listener.local_addr().unwrap());
            let handle = {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.serve(listener).unwrap())
            };
            daemons.push((server, handle));
        }
        let dir = std::env::temp_dir().join("gpufreq-cli-router-test");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("router.addr");
        std::fs::remove_file(&port_file).ok();
        let router_cmd = format!(
            "router --backend {} --backend {} --port 0 --port-file {}",
            backends[0],
            backends[1],
            port_file.to_string_lossy()
        );
        let router = std::thread::spawn(move || run_str(&router_cmd));
        let addr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(s) if s.contains(':') => break s.trim().to_string(),
                _ => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        };
        // Predict through the router, recording the exchange.
        let kernel = write_kernel();
        let trace = dir.join("trace.jsonl");
        std::fs::remove_file(&trace).ok();
        let (code, out) = run_str(&format!(
            "client {addr} {kernel} --record {}",
            trace.to_string_lossy()
        ));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"ok\":\"predict\""), "{out}");
        // The recorded trace parses and pins the same response bytes.
        let contents = std::fs::read_to_string(&trace).unwrap();
        let entries = gpufreq_serve::codec::parse_trace(&contents).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].send.contains("\"op\":\"predict\""));
        assert!(out.contains(&entries[0].recv), "{out}");
        // Router stats carry the aggregated backends plus the router
        // section.
        let (code, out) = run_str(&format!("client {addr} --stats"));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"ok\":\"stats\""), "{out}");
        assert!(out.contains("\"router\":"), "{out}");
        // Shut the router down; the backends keep running.
        let (code, out) = run_str(&format!("client {addr} --shutdown"));
        assert_eq!(code, 0, "{out}");
        let (code, out) = router.join().unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("routing on"), "{out}");
        assert!(out.contains("shutdown complete"), "{out}");
        assert!(out.contains("backend "), "{out}");
        for (backend, (_, handle)) in backends.iter().zip(daemons) {
            let (code, out) = run_str(&format!("client {backend} --shutdown"));
            assert_eq!(code, 0, "{out}");
            let summary = handle.join().unwrap();
            assert!(summary.requests.total >= 1);
        }
    }

    #[test]
    fn bad_usage_exits_nonzero_with_usage() {
        let (code, out) = run_str("predict missing.cl");
        assert_eq!(code, 2);
        assert!(out.contains("USAGE"));
        let (code, _) = run_str("inspect /does/not/exist.cl");
        assert_eq!(code, 1);
    }

    #[test]
    fn help_shows_usage() {
        let (code, out) = run_str("--help");
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }
}
