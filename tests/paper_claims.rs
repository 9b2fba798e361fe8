//! The paper's qualitative claims, encoded as assertions at quick scale.
//!
//! Each test names the figure or passage it checks. These are the
//! "shape" guarantees of the reproduction: who wins, roughly by how much,
//! and where behaviour flips.

use harl_repro::prelude::*;

const FILE: u64 = 256 << 20;

fn ior(op: OpKind, processes: usize, request_size: u64, cluster_file: u64) -> Workload {
    IorConfig {
        processes,
        request_size,
        file_size: cluster_file,
        op,
        order: AccessOrder::Random,
        seed: 0x10,
    }
    .build()
}

fn harl_for(cluster: &ClusterConfig) -> HarlPolicy {
    HarlPolicy::new(MultiProfileModel::from_cluster_calibrated(
        cluster,
        &CalibrationConfig::default(),
    ))
}

/// Fig. 1(a): under the default 64 KiB fixed stripe, HServers spend ≳3.5×
/// the I/O time of SServers.
#[test]
fn fig1a_hservers_dominate_io_time() {
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Read, 16, 512 * KIB, FILE);
    let (_, report) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &FixedPolicy::new(64 * KIB),
        &w,
        &CollectiveConfig::default(),
    );
    let norm = report.normalized_server_times();
    let h_mean: f64 = norm[..6].iter().sum::<f64>() / 6.0;
    assert!(
        h_mean >= 3.5,
        "HServer I/O time only {h_mean:.2}x of SServers (paper: ~3.5x)"
    );
}

/// Fig. 1(b): the best fixed stripe depends on the request size — no
/// single stripe size wins both a small-request and a large-request
/// workload.
#[test]
fn fig1b_no_universal_fixed_stripe() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    let stripes = [16 * KIB, 64 * KIB, 256 * KIB, 1024 * KIB, 2048 * KIB];
    let best_for = |req: u64| {
        let w = ior(OpKind::Read, 16, req, FILE);
        stripes
            .iter()
            .map(|&s| {
                let (_, r) = trace_plan_run(
                    &SimContext::new(),
                    &cluster,
                    &FixedPolicy::new(s),
                    &w,
                    &ccfg,
                );
                (s, r.throughput_mib_s())
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
            .0
    };
    let small = best_for(128 * KIB);
    let large = best_for(2048 * KIB);
    assert_ne!(
        small, large,
        "one stripe size won at both 128K and 2M — the Fig. 1(b) motivation should not hold"
    );
}

/// Fig. 7: HARL provides the best throughput of all evaluated layouts for
/// both reads and writes, with a solid margin over the 64 KiB default.
#[test]
fn fig7_harl_wins_both_directions() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    for op in OpKind::ALL {
        let w = ior(op, 16, 512 * KIB, FILE);
        let (_, h) = trace_plan_run(&SimContext::new(), &cluster, &harl_for(&cluster), &w, &ccfg);
        for &stripe in &[16 * KIB, 64 * KIB, 256 * KIB, 1024 * KIB, 2048 * KIB] {
            let (_, f) = trace_plan_run(
                &SimContext::new(),
                &cluster,
                &FixedPolicy::new(stripe),
                &w,
                &ccfg,
            );
            assert!(
                h.throughput_mib_s() >= f.throughput_mib_s(),
                "{op}: HARL lost to fixed {}",
                ByteSize(stripe)
            );
        }
        for seed in [1, 2] {
            let (_, r) = trace_plan_run(
                &SimContext::new(),
                &cluster,
                &RandomPolicy::new(seed),
                &w,
                &ccfg,
            );
            assert!(h.throughput_mib_s() >= r.throughput_mib_s());
        }
    }
}

/// Fig. 7 detail: the paper's measured read optimum on 6H+2S at 512 KiB is
/// {32K, 160K}; our calibrated pipeline lands on the same pair.
#[test]
fn fig7_read_optimum_is_32k_160k() {
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Read, 16, 512 * KIB, FILE);
    let (rst, _) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &harl_for(&cluster),
        &w,
        &CollectiveConfig::default(),
    );
    let e = &rst.entries()[0];
    assert_eq!(
        (e.width(0) / 1024, e.width(1) / 1024),
        (32, 160),
        "read optimum drifted from the paper's {{32K, 160K}}"
    );
}

/// Fig. 9: at 128 KiB requests the optimal layout stores the file on
/// SServers only ({0K, 64K}), and at 1024 KiB it uses both classes.
#[test]
fn fig9_small_requests_ssd_only_large_requests_mixed() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();

    let w_small = ior(OpKind::Read, 16, 128 * KIB, FILE);
    let (rst_small, _) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &harl_for(&cluster),
        &w_small,
        &ccfg,
    );
    let e = &rst_small.entries()[0];
    assert_eq!(
        (e.width(0), e.width(1)),
        (0, 64 * KIB),
        "paper: {{0K, 64K}} at 128 KiB"
    );

    let w_large = ior(OpKind::Read, 16, 1024 * KIB, FILE);
    let (rst_large, _) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &harl_for(&cluster),
        &w_large,
        &ccfg,
    );
    let e = &rst_large.entries()[0];
    assert!(e.width(0) > 0, "1024 KiB requests should use both classes");
    assert!(e.width(1) > e.width(0));
}

/// Fig. 10: with more SServers than HServers (2:6), HARL places the file
/// only on SServers and the improvement over the default grows much larger
/// than in the 6:2 configuration.
#[test]
fn fig10_ssd_rich_cluster_goes_ssd_only() {
    let ccfg = CollectiveConfig::default();
    let improvement = |m: usize, n: usize| -> (f64, u64) {
        let cluster = ClusterConfig::hybrid(m, n);
        let w = ior(OpKind::Read, 16, 512 * KIB, FILE);
        let (rst, h) = trace_plan_run(&SimContext::new(), &cluster, &harl_for(&cluster), &w, &ccfg);
        let (_, d) = trace_plan_run(
            &SimContext::new(),
            &cluster,
            &FixedPolicy::new(64 * KIB),
            &w,
            &ccfg,
        );
        (
            h.throughput_mib_s() / d.throughput_mib_s(),
            rst.entries()[0].width(0),
        )
    };
    let (gain_62, _) = improvement(6, 2);
    let (gain_26, h_26) = improvement(2, 6);
    assert_eq!(h_26, 0, "2:6 cluster should go SServer-only");
    assert!(
        gain_26 > gain_62 * 1.5,
        "SSD-rich gain {gain_26:.2}x should dwarf the 6:2 gain {gain_62:.2}x"
    );
}

/// Fig. 11: on the non-uniform four-phase workload HARL produces multiple
/// regions with different layouts and beats every fixed stripe.
#[test]
fn fig11_nonuniform_workload_gets_regions() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    let w = MultiRegionIorConfig::paper_default(OpKind::Read, 1.0 / 64.0).build();
    // The workload is scaled down 64x, so scale the fixed-region bound that
    // caps the region count accordingly (64 MiB at paper scale -> 4 MiB).
    let mut policy = harl_for(&cluster);
    policy.division.fixed_region_size = 4 << 20;
    let (rst, h) = trace_plan_run(&SimContext::new(), &cluster, &policy, &w, &ccfg);
    assert!(
        rst.len() >= 2,
        "expected region division to find the phases, got {} region(s)",
        rst.len()
    );
    let layouts: std::collections::HashSet<(u64, u64)> = rst
        .entries()
        .iter()
        .map(|e| (e.width(0), e.width(1)))
        .collect();
    assert!(layouts.len() >= 2, "regions should get distinct layouts");
    for &stripe in &[16 * KIB, 64 * KIB, 256 * KIB] {
        let (_, f) = trace_plan_run(
            &SimContext::new(),
            &cluster,
            &FixedPolicy::new(stripe),
            &w,
            &ccfg,
        );
        assert!(h.throughput_mib_s() > f.throughput_mib_s());
    }
}

/// Fig. 12: HARL improves BTIO (collective, nested-strided) at every
/// process count the paper uses.
#[test]
fn fig12_btio_improves_at_all_process_counts() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    for procs in [4usize, 16] {
        let mut cfg = BtioConfig::paper_default(procs);
        cfg.grid = 40;
        let w = cfg.build();
        let (_, h) = trace_plan_run(&SimContext::new(), &cluster, &harl_for(&cluster), &w, &ccfg);
        let (_, d) = trace_plan_run(
            &SimContext::new(),
            &cluster,
            &FixedPolicy::new(64 * KIB),
            &w,
            &ccfg,
        );
        assert!(
            h.throughput_mib_s() > d.throughput_mib_s(),
            "BTIO at {procs} procs: HARL {:.0} vs default {:.0}",
            h.throughput_mib_s(),
            d.throughput_mib_s()
        );
    }
}

/// Sec. III-A: "SServers are usually allocated with larger stripe sizes
/// than HServers in each region, so that each server can finish their I/O
/// requests nearly at the same time."
#[test]
fn harl_balances_completion_times() {
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Read, 16, 512 * KIB, FILE);
    let ccfg = CollectiveConfig::default();
    let (rst, report) =
        trace_plan_run(&SimContext::new(), &cluster, &harl_for(&cluster), &w, &ccfg);
    let e = &rst.entries()[0];
    assert!(
        e.width(1) > e.width(0),
        "SServer stripe must exceed HServer stripe"
    );
    assert!(
        report.imbalance() < 2.0,
        "HARL imbalance {:.2}x should be far below the default's ~5x",
        report.imbalance()
    );
}

/// Sec. IV-D: space balancing keeps SServer usage within budget at a
/// bounded performance cost.
#[test]
fn discussion_space_balancing_respects_budget() {
    use harl_repro::harl::projected_sserver_bytes;
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Read, 16, 512 * KIB, FILE);
    let ccfg = CollectiveConfig::default();
    let trace = collect_trace_lowered(&cluster, &w, &ccfg);
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let rst = HarlPolicy::new(model.clone()).plan(&SimContext::new(), &trace, FILE);
    let unconstrained = projected_sserver_bytes(&model, &rst);
    let balancer = SpaceBalancer {
        model: model.clone(),
        sserver_capacity: unconstrained / 2,
        optimizer: OptimizerConfig::default(),
    };
    let outcome = balancer.balance(&rst, &trace.sorted_by_offset());
    assert!(outcome.sserver_bytes_after < unconstrained);
    // The balanced plan still beats the 64 KiB default.
    let balanced = run_workload(&SimContext::new(), &cluster, &outcome.rst, &w, &ccfg);
    let (_, default_run) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &FixedPolicy::new(64 * KIB),
        &w,
        &ccfg,
    );
    assert!(
        balanced.throughput_mib_s() > default_run.throughput_mib_s(),
        "space-balanced HARL should still beat the default"
    );
}
