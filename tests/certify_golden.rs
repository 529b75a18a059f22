//! Certification golden vectors: FNV-1a digests of what the static
//! layers report — `lint().to_json()`, `lint_exact().to_json()` and the
//! `synthesize_exact()` certificate JSON — over the paper systems plus
//! one larger mesh, of a masked exact lint and a synthesized heal on a
//! faulted fat fractahedron, of an exact lint whose L6 rule must
//! route the unrestricted pairs itself, and of the up*/down* tables
//! `repair_tables` regenerates around a ladder of fault masks.
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
use fractanet::route::{repair_tables, DeadMask};
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

/// The specs whose repaired tables are pinned.
const REPAIR_SPECS: [&str; 7] = [
    "fat-fractahedron:2",
    "fat-fractahedron:3",
    "mesh:6x6",
    "fattree:64:4:2",
    "hypercube:5",
    "thin-fractahedron:2",
    "torus:4x4",
];

/// `GOLDEN_REPAIRED[spec]` = digests of the repaired tables and their
/// coverage under the masks of [`repair_masks`], in order.
const GOLDEN_REPAIRED: [[u64; 7]; 7] = [
    [
        0x392e_37d2_293c_65a4,
        0xab90_1efc_2b51_c1ac,
        0x680d_cd38_46de_dcfc,
        0xd975_1889_d106_909c,
        0x0019_dafc_100e_4b74,
        0x8c27_1112_73ff_8186,
        0x4301_8fa5_4ad2_0211,
    ],
    [
        0x2fcf_39b1_1479_e96a,
        0xf71b_f72e_08f4_79f2,
        0x5917_f1e6_1b61_0552,
        0x3b4f_82dd_4d7e_4b92,
        0x468f_372f_68b3_efba,
        0x8f3e_0802_ed23_4303,
        0x9f7d_1ba1_e1e3_ce5c,
    ],
    [
        0x00c6_cd17_7355_a604,
        0xfe1d_5bf1_d4d2_7dcc,
        0xe3f6_cccb_d0ff_4474,
        0x3f41_6916_34e5_7f74,
        0xb092_0ae9_ebde_288c,
        0x6c67_4074_3f8a_5003,
        0x8fdc_8abd_3912_7138,
    ],
    [
        0x7b9a_9793_bab2_7784,
        0xaca3_5f36_132d_e774,
        0x3382_7989_c37c_98c4,
        0x8d9e_a7a7_820c_9eb4,
        0x8d9b_63a5_5806_01b4,
        0x58b4_8f08_a6ef_f45b,
        0x9b6b_024f_2d57_47ba,
    ],
    [
        0xf350_dd9d_ca26_8ec4,
        0xc494_ca57_7bc5_90ed,
        0x18ac_1049_2b71_b9d7,
        0x91b1_5841_ff78_1ede,
        0xff1c_7f7a_b2a3_2455,
        0xba8c_fb24_6660_63d1,
        0x6449_aca5_eede_20b2,
    ],
    [
        0xcf23_4660_55c2_96e4,
        0x5435_9142_59aa_8234,
        0x0181_e1e2_5d28_e214,
        0x5593_6c7e_9707_555c,
        0x2977_4d07_37de_e12c,
        0x5866_cca3_5376_5376,
        0x2779_6ac0_057e_3372,
    ],
    [
        0xcad0_471f_d866_221e,
        0x3828_db9d_ab5e_6cf6,
        0x40b6_65da_1fb4_6046,
        0x52a4_57aa_1932_a17e,
        0x87ce_43f0_9c15_14d6,
        0xde6b_3a46_47f0_e610,
        0x985b_c156_191f_0957,
    ],
];

/// The repair ladder: 0 to 4 dead inter-router links spread across the
/// fabric, one dead router, and a mask that cuts end node 0's attach
/// router off from every other router (a second surviving component).
fn repair_masks(net: &Network, ends: &[NodeId]) -> Vec<(String, DeadMask)> {
    let inner: Vec<LinkId> = net
        .links()
        .filter(|&l| {
            let info = net.link(l);
            net.is_router(info.a.0) && net.is_router(info.b.0)
        })
        .collect();
    let spread: Vec<LinkId> = (0..4)
        .map(|j| inner[(2 * j + 1) * inner.len() / 8])
        .collect();
    let mut masks: Vec<(String, DeadMask)> = (0..=4)
        .map(|k| {
            (
                format!("{k} dead link(s)"),
                DeadMask::from_dead(net, &spread[..k], &[]),
            )
        })
        .collect();
    let routers: Vec<NodeId> = net.routers().collect();
    masks.push((
        "dead router".into(),
        DeadMask::from_dead(net, &[], &[routers[routers.len() / 2]]),
    ));
    let attach = net.channels_from(ends[0])[0].1;
    let cut: Vec<LinkId> = net
        .channels_from(attach)
        .iter()
        .filter(|&&(_, w)| net.is_router(w))
        .map(|&(ch, _)| ch.link())
        .collect();
    masks.push(("disconnecting".into(), DeadMask::from_dead(net, &cut, &[])));
    masks
}

/// Every router's row of entries (`ff` when missing), then the
/// coverage.
fn repair_text(net: &Network, ends: &[NodeId], mask: &DeadMask) -> String {
    use std::fmt::Write;
    let rep = repair_tables(net, ends, mask);
    let mut text = String::new();
    for r in net.routers() {
        for d in 0..ends.len() {
            write!(text, "{:02x}", rep.tables.get(r, d).map_or(0xff, |p| p.0)).unwrap();
        }
        text.push('\n');
    }
    write!(
        text,
        "connected {} total {}",
        rep.coverage.connected, rep.coverage.total
    )
    .unwrap();
    text
}

/// The up*/down* tables every heal regenerates, pinned byte for byte
/// across specs and fault masks, so a faster table builder must
/// reproduce the same entries and the same coverage.
#[test]
fn repaired_tables_match_golden_vectors() {
    let mut ledger = Ledger::default();
    for (i, spec) in REPAIR_SPECS.iter().enumerate() {
        let sys = spec.parse::<TopoSpec>().expect("golden spec").build();
        let (net, ends) = (sys.net(), sys.end_nodes());
        for (j, (what, mask)) in repair_masks(net, ends).iter().enumerate() {
            ledger.check(
                format!("{spec} {what}"),
                &repair_text(net, ends, mask),
                GOLDEN_REPAIRED[i][j],
            );
        }
    }
    ledger.finish();
}
