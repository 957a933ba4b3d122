//! Concurrency stress test of the shared [`ProfileCache`]: N threads
//! hammering M sources while holding every `Arc` they were handed must
//! keep the counters and `len()` consistent, and every `Arc` must hold
//! its own source's analysis.

use gpufreq_core::ProfileCache;
use std::sync::Arc;

fn kernel_source(i: usize) -> String {
    format!(
        "__kernel void k{i}(__global float* x) {{
            uint t = get_global_id(0);
            x[t] = x[t] * {i}.0f + 1.0f;
        }}"
    )
}

#[test]
fn cache_survives_concurrent_churn() {
    const THREADS: usize = 8;
    const SOURCES: usize = 24;
    const ROUNDS: usize = 12;

    let cache = ProfileCache::shared();
    let sources: Vec<String> = (0..SOURCES).map(kernel_source).collect();

    let per_thread_calls = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let sources = &sources;
                s.spawn(move || {
                    let mut calls = 0usize;
                    // Each thread walks the sources with its own
                    // stride, holding every Arc to the end of the
                    // round while other threads insert and hit.
                    for round in 0..ROUNDS {
                        let mut held = Vec::new();
                        for i in 0..SOURCES {
                            let idx = (i * (t + 1) + round) % SOURCES;
                            let analyzed = cache
                                .analyze(&sources[idx])
                                .expect("every generated kernel analyzes");
                            assert_eq!(
                                analyzed.1.name,
                                format!("k{idx}"),
                                "an Arc must always hold its own source's analysis"
                            );
                            held.push(analyzed);
                            calls += 1;
                        }
                        // Every held Arc stays fully usable.
                        for h in &held {
                            assert!(h.0.values().iter().all(|v| v.is_finite()));
                        }
                    }
                    calls
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread panicked"))
            .sum::<usize>()
    });

    let total_calls = THREADS * SOURCES * ROUNDS;
    assert_eq!(per_thread_calls, total_calls);
    // Every call was either a hit or a miss, exactly once.
    assert_eq!(
        cache.hits() + cache.misses(),
        total_calls,
        "hits + misses must equal the number of analyze() calls"
    );
    // Every distinct source is resident exactly once, and each missed
    // at least once (racing first-misses may both analyze).
    assert_eq!(cache.len(), SOURCES);
    assert!(
        cache.misses() >= SOURCES,
        "each source misses at least once"
    );
}

#[test]
fn unbounded_cache_counters_stay_consistent_under_concurrency() {
    const THREADS: usize = 8;
    const SOURCES: usize = 6;
    const PER_THREAD: usize = 48;

    let cache = ProfileCache::shared();
    let sources: Vec<String> = (0..SOURCES).map(kernel_source).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let sources = &sources;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let idx = (i + t) % SOURCES;
                    cache.analyze(&sources[idx]).expect("kernels analyze");
                }
            });
        }
    });
    assert_eq!(cache.hits() + cache.misses(), THREADS * PER_THREAD);
    assert_eq!(cache.len(), SOURCES, "every distinct source resident");
    // Racing first-misses may both analyze, but at least one miss per
    // distinct source happened and hits dominate afterwards.
    assert!(cache.misses() >= SOURCES);
    assert!(cache.hits() >= THREADS * PER_THREAD - THREADS * SOURCES);
}
