//! Criterion benches, one group per paper artifact, measuring the
//! computational kernels behind each reproduction: construction,
//! route tracing, contention matching (dense pair sets and
//! destination forests), bisection max-flow, channel-dependency
//! analysis, certification, and simulator cycle throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fractanet::deadlock::{verify_deadlock_free, ChannelDependencyGraph};
use fractanet::metrics::{bisection_estimate, max_link_contention_paths};
use fractanet::prelude::*;
use fractanet::route::ringroute::ring_clockwise_routes;
use fractanet::route::treeroute::updown_routeset;
use fractanet::System;

/// Fig 1: simulate the four-packet loop to deadlock detection.
fn bench_fig1(c: &mut Criterion) {
    let ring = Ring::new(4, 1, 6).unwrap();
    let cw = std::sync::Arc::new(ring_clockwise_routes(&ring));
    let cfg = SimConfig {
        packet_flits: 32,
        buffer_depth: 2,
        max_cycles: 5_000,
        stall_threshold: 200,
        ..SimConfig::default()
    };
    c.bench_function("fig1_ring_deadlock_sim", |b| {
        b.iter(|| {
            let res = Engine::new(ring.net(), ring.end_nodes(), cw.clone(), cfg.clone())
                .run(Workload::fig1_ring(4));
            assert!(res.deadlock.is_some());
        })
    });
}

/// Fig 2: up*/down* route generation + CDG verification on a cube.
fn bench_fig2(c: &mut Criterion) {
    let h = Hypercube::new(4, 2, 6).unwrap();
    c.bench_function("fig2_updown_routes_4cube", |b| {
        b.iter(|| updown_routeset(h.net(), h.end_nodes(), h.router(0)))
    });
    let rs = updown_routeset(h.net(), h.end_nodes(), h.router(0));
    c.bench_function("fig2_cdg_verify_4cube", |b| {
        b.iter(|| verify_deadlock_free(h.net(), &rs).is_ok())
    });
}

/// Fig 3: cluster construction + contention for all sizes.
fn bench_fig3(c: &mut Criterion) {
    c.bench_function("fig3_cluster_series_contention", |b| {
        b.iter(|| {
            let mut total = 0;
            for m in 2..=6 {
                let sys = System::cluster(m);
                let paths = Paths::tables(sys.net(), sys.end_nodes(), sys.routes());
                total += max_link_contention_paths(sys.net(), paths).worst;
            }
            assert_eq!(total, 5 + 4 + 3 + 2 + 1);
        })
    });
}

/// Table 1: fractahedron construction and bisection max-flow.
fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_build_fat_fractahedron_n2", |b| {
        b.iter(|| Fractahedron::new(2, Variant::Fat, false).unwrap())
    });
    c.bench_function("table1_build_thin_fractahedron_n3", |b| {
        b.iter(|| Fractahedron::new(3, Variant::Thin, false).unwrap())
    });
    let f = Fractahedron::paper_fat_64();
    c.bench_function("table1_bisection_fat_64", |b| {
        b.iter(|| bisection_estimate(f.net(), f.end_nodes(), 4).links)
    });
}

/// Table 2: the full analytical battery on both 64-node systems.
fn bench_table2(c: &mut Criterion) {
    let ft = System::fat_tree(64, 4, 2);
    let ff = System::fat_fractahedron(2);
    c.bench_function("table2_contention_fat_tree_64", |b| {
        b.iter(|| {
            max_link_contention_paths(
                ft.net(),
                Paths::tables(ft.net(), ft.end_nodes(), ft.routes()),
            )
            .worst
        })
    });
    c.bench_function("table2_contention_fractahedron_64", |b| {
        b.iter(|| {
            max_link_contention_paths(
                ff.net(),
                Paths::tables(ff.net(), ff.end_nodes(), ff.routes()),
            )
            .worst
        })
    });
    // A fresh system per call: `analyze` caches its certificate.
    c.bench_function("table2_full_analyze_fractahedron", |b| {
        b.iter_batched(
            || System::fat_fractahedron(2),
            |sys| sys.analyze().routers,
            BatchSize::LargeInput,
        )
    });
    c.bench_function("table2_cdg_build_fractahedron", |b| {
        b.iter(|| {
            ChannelDependencyGraph::from_tables(ff.net(), ff.end_nodes(), ff.routes())
                .dependency_count()
        })
    });
}

/// §3.1: mesh route tracing for all pairs.
fn bench_mesh(c: &mut Criterion) {
    let m = Mesh2D::new(6, 6, 2, 6).unwrap();
    let routes = fractanet::route::dor::mesh_xy_routes(&m);
    c.bench_function("sec31_mesh_trace_all_pairs", |b| {
        b.iter(|| {
            RouteSet::from_table(m.net(), m.end_nodes(), &routes)
                .unwrap()
                .len()
        })
    });
}

/// Certification on mesh:10x10 (200 end nodes): shortest-allowed-path
/// routing of every pair with no turn disabled (the first step of
/// every Fig 2 synthesis), and the exact lint (L3 and L6 with its
/// synthesized certificate).
fn bench_certify(c: &mut Criterion) {
    use fractanet::deadlock::{disables::route_all, DisableSet};
    let m = "mesh:10x10".parse::<TopoSpec>().unwrap().build();
    c.bench_function("synth_route_all_mesh_10x10", |b| {
        b.iter(|| {
            route_all(m.net(), m.end_nodes(), &DisableSet::new())
                .unwrap()
                .len()
        })
    });
    // A fresh system per call: `lint_exact` caches its certificate.
    c.bench_function("lint_exact_mesh_10x10", |b| {
        b.iter_batched(
            || "mesh:10x10".parse::<TopoSpec>().unwrap().build(),
            |m| assert!(m.lint_exact().is_clean()),
            BatchSize::LargeInput,
        )
    });
}

/// Table-view certification on fat-fractahedron:3 (512 end nodes),
/// read from one routing forest per destination: the default lint
/// (L1–L5 with the depth-first discipline, contention included), the
/// contention report alone, and the one sweep a `System` certificate
/// runs — dependency graph, hop statistics, contention and L1/L2/L4 fed
/// by each forest in turn. Plus the CDG alone on mesh:24x24 (1152 end
/// nodes).
fn bench_forest_certify(c: &mut Criterion) {
    use fractanet::deadlock::CdgSweep;
    use fractanet::lint::Discipline;
    use fractanet::metrics::{ContentionSweep, HopSweep};
    use fractanet::route::fractal::fractal_routes;
    use fractanet::route::DestForest;
    let f = Fractahedron::new(3, Variant::Fat, false).unwrap();
    let routes = fractal_routes(&f);
    let (net, ends) = (f.net(), f.end_nodes());
    c.bench_function("lint_check_fat_fractahedron_3", |b| {
        b.iter(|| {
            let report = Linter::new(net, ends)
                .with_discipline(Discipline::fractahedral(&f))
                .check_tables(&routes);
            assert!(report.is_clean());
        })
    });
    c.bench_function("contention_tables_fat_fractahedron_3", |b| {
        b.iter(|| max_link_contention_paths(net, Paths::tables(net, ends, &routes)).worst)
    });
    c.bench_function("forest_sweep_fat_fractahedron_3", |b| {
        b.iter(|| {
            let linter = Linter::new(net, ends).with_discipline(Discipline::fractahedral(&f));
            let mut cdg = CdgSweep::new(net);
            let mut hops = HopSweep::new(ends.len());
            let mut contention = ContentionSweep::new(net, ends.len());
            let mut pairs = linter.pair_sweep(&routes);
            DestForest::sweep(
                net,
                ends,
                &routes,
                &mut [&mut cdg, &mut hops, &mut contention, &mut pairs],
            );
            (
                cdg.finish().dependency_count(),
                hops.finish().expect("all routed").max,
                contention.finish().worst,
                pairs.finish(),
            )
        })
    });
    let mesh = Mesh2D::new(24, 24, 2, 6).unwrap();
    let mesh_routes = fractanet::route::dor::mesh_xy_routes(&mesh);
    c.bench_function("cdg_from_tables_mesh_24x24", |b| {
        b.iter(|| {
            ChannelDependencyGraph::from_tables(mesh.net(), mesh.end_nodes(), &mesh_routes)
                .dependency_count()
        })
    });
}

/// §4 simulation: engine cycle throughput at moderate load.
fn bench_sim(c: &mut Criterion) {
    let ff = System::fat_fractahedron(2);
    let cfg = SimConfig {
        packet_flits: 16,
        buffer_depth: 4,
        max_cycles: 2_000,
        stall_threshold: 1_900,
        ..SimConfig::default()
    };
    c.bench_function("sim_2000_cycles_fat_64_load_0p3", |b| {
        b.iter_batched(
            || Workload::Bernoulli {
                injection_rate: 0.3,
                pattern: DstPattern::Uniform,
                until_cycle: 2_000,
            },
            |wl| {
                let res = ff.simulate(wl, cfg.clone());
                assert!(res.deadlock.is_none());
            },
            BatchSize::SmallInput,
        )
    });
}

/// §4 extensions: generalized construction + VC engine + bisection
/// max-flow at the 1024-node scale.
fn bench_extensions(c: &mut Criterion) {
    use fractanet::sim::vc::dateline_ring_map;
    use fractanet::topo::{ClusterShape, Fractahedron, GenFractahedron};

    c.bench_function("ext_build_generalized_3_6_2_2", |b| {
        let shape = ClusterShape {
            cluster: 3,
            ports: 6,
            down: 2,
            up: 2,
        };
        b.iter(|| GenFractahedron::new(shape, 2, true).unwrap())
    });

    let ring = Ring::new(4, 1, 6).unwrap();
    let tables = std::sync::Arc::new(ring_clockwise_routes(&ring));
    let cfg = SimConfig {
        packet_flits: 32,
        buffer_depth: 2,
        max_cycles: 5_000,
        stall_threshold: 300,
        ..SimConfig::default()
    };
    c.bench_function("ext_vc_ring_fig1_completes", |b| {
        b.iter(|| {
            let res = Engine::new(ring.net(), ring.end_nodes(), tables.clone(), cfg.clone())
                .with_vc_map(dateline_ring_map(&ring, 2))
                .run(Workload::fig1_ring(4));
            assert!(res.deadlock.is_none());
        })
    });

    c.bench_function("ext_bisection_thin_1024cpu", |b| {
        let f = Fractahedron::paper_thin_1024();
        b.iter(|| bisection_estimate(f.net(), f.end_nodes(), 0).links)
    });
}

criterion_group! {
    name = paper;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1, bench_fig2, bench_fig3, bench_table1, bench_table2, bench_mesh,
              bench_certify, bench_forest_certify, bench_sim, bench_extensions
}
criterion_main!(paper);
