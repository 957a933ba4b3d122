//! Exposition goldens: the set of `/metrics` families each tier emits.
//!
//! Each test renders a fresh tier's exposition and reduces it to its
//! sorted `# HELP`/`# TYPE` lines plus every non-`_bucket` sample's
//! name and labels, values masked. The reduced form pins every family
//! name, type, help text and label set while ignoring values, so a
//! drifting metric (added, removed, renamed, retyped or relabelled)
//! shows up as a diff against the checked-in golden.
//!
//! To regenerate after an *intentional* change:
//!
//! ```sh
//! GPUFREQ_BLESS=1 cargo test --test exposition_golden
//! ```

mod common;

use gpufreq_router::{BackendSpec, Router, RouterConfig};
use gpufreq_serve::{build_rev, Server, ServerConfig};
use std::path::{Path, PathBuf};

/// The reduced form of an exposition document (see the module docs).
fn reduce(text: &str) -> String {
    let build = format!("build=\"{}\"", build_rev());
    let mut lines: Vec<String> = text
        .lines()
        .filter_map(|line| {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                return Some(line.to_string());
            }
            let (name_labels, _value) = line.rsplit_once(' ')?;
            let name = name_labels.split('{').next()?;
            (!name.ends_with("_bucket"))
                .then(|| format!("{} _", name_labels.replace(&build, "build=\"\"")))
        })
        .collect();
    lines.sort();
    lines.join("\n") + "\n"
}

/// Compare `exposition`'s reduced form with `tests/exposition/<name>`,
/// or rewrite the golden under `GPUFREQ_BLESS=1`.
fn check_golden(name: &str, exposition: &str) {
    gpufreq_obs::parse_exposition(exposition).expect("the exposition parses strictly");
    let reduced = reduce(exposition);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/exposition")
        .join(name);
    if std::env::var_os("GPUFREQ_BLESS").is_some() {
        std::fs::write(&path, &reduced).expect("write the golden");
        eprintln!("[golden] blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with GPUFREQ_BLESS=1 to create it",
            path.display()
        )
    });
    assert!(
        committed == reduced,
        "{} drifted; re-bless with GPUFREQ_BLESS=1 only for an intended change.\n\
         --- committed\n{committed}--- rendered\n{reduced}",
        path.display()
    );
}

/// A per-process trace-log sink, so parallel test binaries never share
/// a file.
fn sink(tier: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gpufreq-exposition-golden");
    std::fs::create_dir_all(&dir).expect("create the sink directory");
    dir.join(format!("{tier}-{}.jsonl", std::process::id()))
}

#[test]
fn daemon_exposition_families_match_the_golden() {
    let mut server = Server::new(vec![common::planner()], ServerConfig::default())
        .expect("one planner is valid");
    let sink = sink("serve");
    server.set_trace_log(common::trace_log(&sink));
    check_golden("serve.txt", &server.exposition());
    std::fs::remove_file(&sink).ok();
}

#[test]
fn router_exposition_families_match_the_golden() {
    // Explicit device lists defer every backend connection, so the
    // router builds with nothing listening.
    let config = RouterConfig {
        backends: ["127.0.0.1:1=titan-x", "127.0.0.1:2=titan-x,tesla-p100"]
            .iter()
            .map(|s| s.parse::<BackendSpec>().expect("valid backend spec"))
            .collect(),
        ..RouterConfig::default()
    };
    let mut router = Router::new(config).expect("explicit device lists need no backend");
    let sink = sink("router");
    router.set_trace_log(common::trace_log(&sink));
    check_golden("router.txt", &router.exposition());
    std::fs::remove_file(&sink).ok();
}
