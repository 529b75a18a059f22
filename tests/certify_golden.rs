//! Certification golden vectors: FNV-1a digests of what the static
//! layers report — `lint().to_json()`, `lint_exact().to_json()` and the
//! `synthesize_exact()` certificate JSON — over the paper systems plus
//! one larger mesh, of a masked exact lint and a synthesized heal on a
//! faulted fat fractahedron, and of an exact lint whose L6 rule must
//! route the unrestricted pairs itself.
//!
//! The constants pin the certification layer's output byte for byte,
//! so an internal rewrite of the route search (batching, scratch
//! reuse, reading rows from a witness) must reproduce them exactly. A
//! deliberate behaviour change re-mints them: the failure message
//! prints every digest the run produced.

use fractanet::deadlock::ExactConfig;
use fractanet::graph::{LinkId, Network};
use fractanet::lint::Linter;
use fractanet::prelude::*;
use fractanet::route::ringroute::ring_clockwise_routes;
use fractanet::route::DeadMask;
use fractanet::servernet::synthesize_heal;

/// The `certify` workload's paper systems (the cyclic `torus:4x4` and
/// `ring:8` included) plus one larger mesh.
const SPECS: [&str; 10] = [
    "fat-fractahedron:2",
    "thin-fractahedron:2",
    "mesh:6x6",
    "fattree:64:4:2",
    "hypercube:5",
    "tetrahedron",
    "torus:4x4",
    "torus:4x4:vc2:dateline",
    "ring:8",
    "mesh:10x10",
];

/// `GOLDEN[spec]` = digests of `[lint, lint_exact, synthesize_exact]`.
const GOLDEN: [[u64; 3]; 10] = [
    [
        0xbf02_5411_a353_2f9d,
        0xb6f9_901f_0a1f_5e1f,
        0xb3c5_4bde_1542_84a6,
    ],
    [
        0x099a_8086_f42a_2be7,
        0xe423_7898_c1d7_0692,
        0x121b_4fdb_ead0_e91a,
    ],
    [
        0xc6fc_719e_f514_5b7e,
        0x5883_2275_5a23_6b8a,
        0x00f7_5d9b_d33a_29f8,
    ],
    [
        0xa4f5_d260_091c_df8c,
        0x8d68_372b_804e_c76d,
        0x2d1b_e266_fdc3_403a,
    ],
    [
        0x0da5_5226_0556_59d7,
        0x188e_6326_1bda_42c9,
        0x2ecf_218d_4b77_a96a,
    ],
    [
        0x3104_75dd_6f49_16f7,
        0xd7e7_8a48_da59_fee4,
        0xf3ab_a518_22c8_3360,
    ],
    [
        0xba19_7232_3084_b597,
        0x0aca_7576_e995_acf3,
        0x483a_3975_1bdc_a5e2,
    ],
    [
        0xf014_e668_11cb_10b3,
        0xef7f_5383_bca4_b31d,
        0x483a_3975_1bdc_a5e2,
    ],
    [
        0x1f9f_c2c8_bcef_4995,
        0x199c_eeba_d582_ec13,
        0x1a1a_5b3c_2d79_fd25,
    ],
    [
        0x8acc_c3a3_53b4_0c63,
        0x83d6_176d_afb7_27c1,
        0xe126_3701_de54_3ed8,
    ],
];

/// Digest of the exact lint of all-clockwise tables on an 8-ring.
const GOLDEN_CLOCKWISE: u64 = 0xf27a_bc8c_3c31_d7b2;

/// Digests of the masked exact lint and the synthesized heal on
/// fat-fractahedron:2 with one inter-router link killed.
const GOLDEN_MASKED: [u64; 2] = [0xed52_c50b_b003_c10c, 0x5cab_ee00_2cdf_4ad5];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Collects mismatches and every produced digest for the failure
/// message.
#[derive(Default)]
struct Ledger {
    got: Vec<String>,
    mismatches: Vec<String>,
}

impl Ledger {
    fn check(&mut self, what: String, text: &str, want: u64) {
        let digest = fnv1a(text.as_bytes());
        if digest != want {
            self.mismatches.push(what.clone());
        }
        self.got.push(format!("{what}: {digest:#018x}"));
    }

    fn finish(self) {
        assert!(
            self.mismatches.is_empty(),
            "digests diverged for {:?}; this run produced:\n{}",
            self.mismatches,
            self.got.join("\n")
        );
    }
}

#[test]
fn certification_matches_golden_vectors() {
    let mut ledger = Ledger::default();
    for (i, spec) in SPECS.iter().enumerate() {
        let sys = spec.parse::<TopoSpec>().expect("golden spec").build();
        ledger.check(format!("{spec} lint"), &sys.lint().to_json(), GOLDEN[i][0]);
        ledger.check(
            format!("{spec} lint_exact"),
            &sys.lint_exact().to_json(),
            GOLDEN[i][1],
        );
        let cert = match sys.synthesize_exact() {
            Ok(s) => s.certificate_json(),
            Err(e) => format!("error: {e}"),
        };
        ledger.check(format!("{spec} synthesize_exact"), &cert, GOLDEN[i][2]);
    }
    ledger.finish();
}

/// The middle inter-router link, so the kill lands inside the fabric.
fn victim(net: &Network) -> LinkId {
    let inner: Vec<LinkId> = net
        .links()
        .filter(|&l| {
            let info = net.link(l);
            net.is_router(info.a.0) && net.is_router(info.b.0)
        })
        .collect();
    inner[inner.len() / 2]
}

#[test]
fn masked_certification_matches_golden_vectors() {
    let sys = "fat-fractahedron:2"
        .parse::<TopoSpec>()
        .expect("golden spec")
        .build();
    let (net, ends) = (sys.net(), sys.end_nodes());
    let mut mask = DeadMask::new(net);
    mask.kill_link(victim(net));
    let mut ledger = Ledger::default();

    let lint = Linter::new(net, ends)
        .with_subject("masked")
        .with_mask(&mask)
        .with_exact(ExactConfig::default())
        .check_tables(sys.routes());
    let l6 = lint.by_rule(RuleId::L6Minimality).next();
    assert!(
        l6.is_some_and(|d| d.certificate.is_some()),
        "masked exact lint must run L6 with a certificate: {lint}"
    );
    ledger.check(
        "masked lint_exact".into(),
        &lint.to_json(),
        GOLDEN_MASKED[0],
    );

    let heal = synthesize_heal(net, ends, &mask).expect("one dead link heals");
    let mut disables: Vec<(u32, u32)> = heal.disables.iter().map(|(a, b)| (a.0, b.0)).collect();
    disables.sort_unstable();
    let mut text = format!(
        "disables {disables:?} connected {} total {} deps {} tables {}\n",
        heal.coverage.connected,
        heal.coverage.total,
        heal.cdg_dependencies,
        heal.tables.is_some()
    );
    for (s, d, p) in heal.routes.pairs() {
        let chans: Vec<u32> = p.iter().map(|c| c.0).collect();
        text.push_str(&format!("{s} {d} {chans:?}\n"));
    }
    ledger.check("synthesize_heal".into(), &text, GOLDEN_MASKED[1]);
    ledger.finish();
}

/// The unrestricted routing of an 8-ring needs two disables, so L6
/// cannot read it from the witness and routes it itself; the installed
/// all-clockwise tables forgo the counter-clockwise turns it takes.
#[test]
fn clockwise_ring_exact_lint_matches_golden_vector() {
    let r = Ring::new(8, 1, 6).expect("ring");
    let lint = Linter::new(r.net(), r.end_nodes())
        .with_subject("ring:8 clockwise")
        .with_exact(ExactConfig::default())
        .check_tables(&ring_clockwise_routes(&r));
    let l6 = lint.by_rule(RuleId::L6Minimality).next().expect("L6 runs");
    assert!(
        l6.message.contains("2 disable(s)") && !l6.message.contains("forgoes 0 "),
        "{lint}"
    );
    let mut ledger = Ledger::default();
    ledger.check(
        "ring:8 clockwise lint_exact".into(),
        &lint.to_json(),
        GOLDEN_CLOCKWISE,
    );
    ledger.finish();
}
