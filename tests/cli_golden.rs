//! CLI golden vectors: FNV-1a digests of the exit code and full stdout
//! text of `execute(parse(argv))` for the simulation front door —
//! `simulate`, `metrics`, `trace`, `replay` and `chaos` — over a fixed
//! list of command lines.
//!
//! The constants pin every output byte, so a rewrite of how these
//! commands set up the engine must reproduce them exactly. A
//! deliberate output change re-mints them: the failure message prints
//! every digest the run produced.
//!
//! Replay inputs are the checked-in `results/traces/*.jsonl` and
//! `results/chaos/*.json` files. Their paths appear in the output, so
//! each is rendered relative to the repository root before hashing.

use fractanet::cli::{execute, parse};
use std::path::{Path, PathBuf};

/// `(argv, digest)`. Paths under `results/` resolve against the
/// repository root.
const GOLDEN: [(&str, u64); 16] = [
    (
        "simulate fat-fractahedron:2 --cycles 4000 --load 0.1 --kill-link 100 \
         --fault-at 800 --heal --metrics-every 200",
        0xedd5_29f5_0114_361c,
    ),
    (
        "simulate fat-fractahedron:2 --cycles 4000 --load 0.1 --kill-link 100 \
         --fault-at 800 --heal --metrics-every 200 --telemetry",
        0x6f0d_530c_393b_2dd0,
    ),
    (
        "simulate torus:4x4:vc2:dateline --fifo-depth 2 --credit-delay 1 --cycles 3000",
        0xa5a9_ced7_2dc1_4727,
    ),
    ("metrics tetrahedron --format prom", 0x2a24_53c1_077d_4723),
    ("metrics tetrahedron --format jsonl", 0x0f81_15f7_b516_5031),
    ("trace tetrahedron --format jsonl", 0xb93e_3c66_afa6_7bb5),
    ("trace tetrahedron --format chrome", 0x4a09_4531_22e0_e30b),
    ("trace tetrahedron --format summary", 0x5aa4_3163_300e_a7d1),
    (
        "replay results/traces/chaos_dup_suppression.jsonl",
        0x77ab_0645_5586_0d03,
    ),
    (
        "replay results/traces/e16_pileup.jsonl",
        0xad13_db61_9cf4_472c,
    ),
    (
        "chaos fat-fractahedron:2 --runs 4 --quick",
        0x8e27_31d6_1f43_e775,
    ),
    (
        "chaos --replay results/chaos/regression_dup_suppression.json",
        0xf92f_eedc_223d_7d74,
    ),
    (
        "chaos --replay results/chaos/regression_dup_suppression.json --disable-dedup",
        0x09a6_1da5_60b9_94bb,
    ),
    (
        "simulate ring:4 --load 0.4 --cycles 4000",
        0x501d_7ec0_0c59_0d6f,
    ),
    (
        "trace fat-fractahedron:1 --cycles 2000 --kill-link 2 --fault-at 300 --heal",
        0x3546_1f9b_1b24_2f87,
    ),
    (
        "metrics mesh:3x3 --cycles 3000 --kill-link 5 --fault-at 400 --heal --format jsonl",
        0x5029_b408_8afb_e481,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs one command line; `results/...` arguments become absolute
/// paths, and the output names them relative to the repository root
/// again, so the digest does not depend on the checkout location.
fn render(argv: &str) -> String {
    let root = repo_root();
    let mut abs = Vec::new();
    let args: Vec<String> = argv
        .split_whitespace()
        .map(|a| {
            if a.starts_with("results/") {
                let p = root.join(a).to_str().expect("utf-8 path").to_string();
                abs.push((p.clone(), a.to_string()));
                p
            } else {
                a.to_string()
            }
        })
        .collect();
    let outcome = execute(parse(&args).expect("golden argv parses")).expect("golden run succeeds");
    let mut text = format!("exit {}\n{}", outcome.code, outcome.output);
    for (p, rel) in abs {
        text = text.replace(&p, &rel);
    }
    text
}

/// The checked-in files with extension `ext` under `results/<dir>`,
/// as repository-relative paths.
fn checked_in(dir: &str, ext: &str) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(repo_root().join("results").join(dir))
        .expect("results directory")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|n| n.ends_with(ext) && !n.ends_with(".incident.json"))
        .map(|n| format!("results/{dir}/{n}"))
        .collect();
    files.sort();
    files
}

#[test]
fn golden_list_replays_every_checked_in_file() {
    for (dir, ext, cmd) in [
        ("traces", ".jsonl", "replay "),
        ("chaos", ".json", "chaos --replay "),
    ] {
        for file in checked_in(dir, ext) {
            assert!(
                GOLDEN
                    .iter()
                    .any(|(argv, _)| *argv == format!("{cmd}{file}")),
                "{file} has no golden replay"
            );
        }
    }
}

#[test]
fn cli_matches_golden_vectors() {
    let mut got = Vec::new();
    let mut mismatches = Vec::new();
    for (argv, want) in GOLDEN {
        let digest = fnv1a(render(argv).as_bytes());
        got.push(format!("{argv}: {digest:#018x}"));
        if digest != want {
            mismatches.push(argv);
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests diverged for {mismatches:?}; this run produced:\n{}",
        got.join("\n")
    );
}
