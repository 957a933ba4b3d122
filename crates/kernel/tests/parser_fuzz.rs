//! No-panic fuzz over the OpenCL-C front end.
//!
//! The lexer, parser, and IR analyzer sit in front of every prediction
//! (including the serve daemon, where request bodies arrive from the
//! network), so malformed source must surface as [`LexError`] /
//! [`ParseError`] / [`AnalysisError`] values — never as a panic, slice
//! overrun, or non-UTF-8 split. Two generators drive the front end:
//!
//! 1. arbitrary byte soup (lossily decoded, so it includes replacement
//!    characters and embedded NULs), and
//! 2. point mutations of *valid* kernels — the inputs most likely to
//!    get deep into the grammar before going wrong.
//!
//! Successful parses are pushed on through [`analyze_kernel`] so the
//! loop-bound and addressing analyses get fuzzed too.
//!
//! A third generator nests one construct (`(`, `{`, `[`, prefix
//! operators, casts, operator and index chains, `?:`, `if`) far past
//! [`MAX_NESTING`]. Those inputs run on a thread with a 256 KiB stack
//! and must come back as a typed nesting error: a stack overflow
//! aborts the whole test binary.

use gpufreq_kernel::{analyze_kernel, lex, parse, MAX_NESTING};
use proptest::collection::vec;
use proptest::prelude::*;

/// A realistic valid kernel: local-memory staging, a bounded loop, a
/// data-dependent branch — enough grammar surface that single-token
/// damage lands in interesting places.
const VALID_NN: &str = r#"
__kernel void nn(__global float* qx, __global float* qy,
                 __global float* rx_g, __global float* ry_g,
                 __global int* out, int n) {
    __local float rx[128];
    __local float ry[128];
    uint gid = get_global_id(0);
    uint lid = get_local_id(0);
    rx[lid] = rx_g[lid];
    ry[lid] = ry_g[lid];
    barrier(0);
    float best = 1000000000.0f;
    int best_i = 0;
    for (int r = 0; r < n; r += 1) {
        float dx = rx[r] - qx[gid];
        float dy = ry[r] - qy[gid];
        float d = dx * dx + dy * dy;
        if (d < best) {
            best = d;
            best_i = r;
        }
    }
    out[gid] = best_i;
}
"#;

/// A second seed with different constructs: while loop, compound
/// assignment, integer ops, two kernels in one translation unit.
const VALID_PAIR: &str = r#"
__kernel void scale(__global float* data, float k, int n) {
    uint gid = get_global_id(0);
    int i = 0;
    while (i < n) {
        data[gid * n + i] = data[gid * n + i] * k;
        i += 1;
    }
}

__kernel void mask(__global int* v, int bits) {
    uint gid = get_global_id(0);
    v[gid] = (v[gid] >> 2) & bits;
}
"#;

/// Drive the whole front end; the property is simply "returns".
fn front_end_must_not_panic(src: &str) {
    // The lexer alone (parse re-lexes, but this pins the entry point).
    let _ = lex(src);
    if let Ok(program) = parse(src) {
        for kernel in &program.kernels {
            let _ = analyze_kernel(kernel);
        }
    }
}

/// Apply one point mutation to `src`, chosen by (`op`, `pos`, `byte`).
fn mutate(src: &str, op: u8, pos: usize, byte: u8) -> String {
    let mut bytes = src.as_bytes().to_vec();
    let at = pos % (bytes.len() + 1);
    match op % 4 {
        // Replace one byte.
        0 if at < bytes.len() => bytes[at] = byte,
        // Delete one byte.
        1 if !bytes.is_empty() => {
            bytes.remove(at % bytes.len());
        }
        // Insert one byte.
        2 => bytes.insert(at, byte),
        // Truncate.
        _ => bytes.truncate(at),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Names of the nestable shapes [`deep_kernel`] builds.
const DEEP_SHAPES: [&str; 10] = [
    "paren", "brace", "bracket", "not", "neg", "cast", "ternary", "sum", "index", "if",
];

/// A kernel whose one statement nests `DEEP_SHAPES[shape]` `n` times.
fn deep_kernel(shape: usize, n: usize) -> String {
    let stmt = match DEEP_SHAPES[shape] {
        "paren" => format!("x[i] = {}1.0f{};", "(".repeat(n), ")".repeat(n)),
        "brace" => format!("{}{}", "{".repeat(n), "}".repeat(n)),
        "bracket" => format!("x[i] = {}0{};", "x[".repeat(n), "]".repeat(n)),
        "not" => format!("x[i] = {}1;", "!".repeat(n)),
        "neg" => format!("x[i] = {}1.0f;", "- ".repeat(n)),
        "cast" => format!("x[i] = {}1;", "(int)".repeat(n)),
        "ternary" => format!("x[i] = {}2.0f;", "i ? 1.0f : ".repeat(n)),
        "sum" => format!("x[i] = 1.0f{};", " + 1.0f".repeat(n)),
        "index" => format!("x[i] = x{};", "[0]".repeat(n)),
        "if" => format!("{}x[i] = 1.0f;", "if (i) ".repeat(n)),
        other => unreachable!("unknown shape {other}"),
    };
    format!("__kernel void deep(__global float* x) {{\n    uint i = get_global_id(0);\n    {stmt}\n}}\n")
}

/// Run `f` on a thread with a 256 KiB stack, far below the 2 MiB a
/// spawned thread gets by default. Overflowing it aborts the process.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(f)
        .expect("spawn a small-stack thread")
        .join()
        .expect("small-stack thread panicked")
}

/// Parse `src` on a small stack and require the typed nesting error.
fn assert_nesting_error(src: String) {
    let err = on_small_stack(move || parse(&src).map(|_| ()).unwrap_err());
    assert!(err.message.contains("nesting deeper than"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics, and — lacking a `__kernel`
    /// token stream that typechecks — never yields kernels either.
    #[test]
    fn arbitrary_bytes_error_cleanly(bytes in vec(0u8..=255, 0..512usize)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        front_end_must_not_panic(&src);
        if !src.contains("__kernel") {
            prop_assert!(parse(&src).is_err());
        }
    }

    /// Printable-character strings (more likely to form real tokens)
    /// never panic the lexer or parser.
    #[test]
    fn printable_strings_error_cleanly(src in "[\\PC\\n\\t]{0,300}") {
        front_end_must_not_panic(&src);
        if !src.contains("__kernel") {
            prop_assert!(parse(&src).is_err());
        }
    }

    /// Point-mutated valid kernels never panic anywhere in the front
    /// end; whatever still parses must also analyze without panicking.
    #[test]
    fn mutated_valid_kernels_never_panic(
        ops in vec((0u8..=3, 0usize..4096, 0u8..=255), 1..8usize),
        seed in 0u8..=1,
    ) {
        let mut src = if seed == 0 { VALID_NN } else { VALID_PAIR }.to_string();
        for &(op, pos, byte) in &ops {
            src = mutate(&src, op, pos, byte);
        }
        front_end_must_not_panic(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any shape nested anywhere past the limit is a typed error on a
    /// small stack, never an abort.
    #[test]
    fn deep_nesting_is_a_typed_error(
        shape in 0usize..DEEP_SHAPES.len(),
        n in (MAX_NESTING + 1)..200_000usize,
    ) {
        assert_nesting_error(deep_kernel(shape, n));
    }
}

/// The inputs that used to abort `gpufreq inspect` with a stack
/// overflow now get the typed error, even on a small stack.
#[test]
fn former_stack_overflows_are_typed_errors() {
    let shape = |name| DEEP_SHAPES.iter().position(|s| *s == name).unwrap();
    assert_nesting_error(deep_kernel(shape("paren"), 20_000));
    assert_nesting_error(deep_kernel(shape("not"), 200_000));
    assert_nesting_error(deep_kernel(shape("brace"), 50_000));
    assert_nesting_error(deep_kernel(shape("bracket"), 20_000));
}

/// The limit is tight but not stricter than stated: every shape nests
/// to within a few levels of [`MAX_NESTING`], and the deepest accepted
/// kernel goes through the whole front end (parse, analysis, drop) on
/// the same small stack.
#[test]
fn deepest_accepted_kernels_analyze_on_a_small_stack() {
    for (shape, name) in DEEP_SHAPES.iter().enumerate() {
        let deepest = (0..=MAX_NESTING)
            .rev()
            .find(|&n| parse(&deep_kernel(shape, n)).is_ok())
            .unwrap_or_else(|| panic!("{name}: no depth parses"));
        assert!(
            (MAX_NESTING - 4..=MAX_NESTING).contains(&deepest),
            "{name}: {deepest} levels"
        );
        assert_nesting_error(deep_kernel(shape, deepest + 1));
        let src = deep_kernel(shape, deepest);
        on_small_stack(move || {
            let program = parse(&src).expect("parses");
            analyze_kernel(&program.kernels[0]).expect("analyzes");
        });
    }
}

/// The unmutated seeds really are valid — otherwise the mutation fuzz
/// would be exploring the error paths only.
#[test]
fn fuzz_seeds_parse_and_analyze() {
    for src in [VALID_NN, VALID_PAIR] {
        let program = parse(src).expect("seed kernel parses");
        for kernel in &program.kernels {
            analyze_kernel(kernel).expect("seed kernel analyzes");
        }
    }
}
