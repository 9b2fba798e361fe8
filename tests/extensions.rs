//! Integration tests for the paper's discussion/future-work extensions:
//! on-line adaptation, multi-application sharing, space balancing and the
//! K-profile model — exercised end to end through the public API.

use harl_repro::harl::{ClassParams, OnlineConfig, OnlineMonitor};
use harl_repro::middleware::run_shared;
use harl_repro::prelude::*;

const FILE: u64 = 256 << 20;

fn ior(op: OpKind, request_size: u64, seed: u64) -> Workload {
    IorConfig {
        processes: 8,
        request_size,
        file_size: FILE,
        op,
        order: AccessOrder::Random,
        seed,
    }
    .build()
}

#[test]
fn online_adaptation_converges_to_fresh_offline_plan() {
    // Plan for 512 KiB requests, then the application switches to 128 KiB.
    // The monitor must detect the drift and converge to the same layout a
    // fresh offline HARL analysis of the new pattern would choose — and
    // the adapted table must still beat the traditional 64K default.
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());

    let old_workload = ior(OpKind::Read, 512 * KIB, 1);
    let old_trace = collect_trace_lowered(&cluster, &old_workload, &ccfg);
    let stale_rst = HarlPolicy::new(model.clone()).plan(&SimContext::new(), &old_trace, FILE);

    let new_workload = ior(OpKind::Read, 128 * KIB, 2);
    let new_trace = collect_trace_lowered(&cluster, &new_workload, &ccfg);

    let mut monitor = OnlineMonitor::new(
        model.clone(),
        stale_rst.clone(),
        vec![512 * KIB; stale_rst.len()],
        OnlineConfig::default(),
    );
    let mut events = Vec::new();
    for rec in new_trace.records() {
        events.extend(monitor.observe(*rec));
    }
    assert!(!events.is_empty(), "drift must be detected");
    let adapted_rst = monitor.current_rst().clone();
    assert_ne!(adapted_rst, stale_rst);

    // Self-consistency: the online re-plan lands on the offline optimum
    // for the new pattern.
    let fresh = HarlPolicy::new(model).plan(&SimContext::new(), &new_trace, FILE);
    assert_eq!(
        (
            adapted_rst.entries()[0].width(0),
            adapted_rst.entries()[0].width(1)
        ),
        (fresh.entries()[0].width(0), fresh.entries()[0].width(1)),
        "online adaptation should match the fresh offline plan"
    );

    // And it still beats the traditional default on the new pattern.
    let default = RegionStripeTable::uniform(FILE, vec![64 * KIB, 64 * KIB]);
    let adapted_run = run_workload(
        &SimContext::new(),
        &cluster,
        &adapted_rst,
        &new_workload,
        &ccfg,
    );
    let default_run = run_workload(&SimContext::new(), &cluster, &default, &new_workload, &ccfg);
    assert!(
        adapted_run.throughput_mib_s() > default_run.throughput_mib_s(),
        "adapted {:.0} vs default {:.0}",
        adapted_run.throughput_mib_s(),
        default_run.throughput_mib_s()
    );

    // The migration bill is quantified.
    let e = &events[0];
    assert!(e.migration_bytes > 0);
    assert!(e.break_even_requests(200.0 * 1024.0 * 1024.0).is_some());
}

#[test]
fn multiapp_per_app_planning_beats_shared_default() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    let app1 = ior(OpKind::Read, 512 * KIB, 3);
    let app2 = ior(OpKind::Read, 128 * KIB, 4);

    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let plan = |w: &Workload| {
        let trace = collect_trace_lowered(&cluster, w, &ccfg);
        HarlPolicy::new(model.clone()).plan(&SimContext::new(), &trace, FILE)
    };
    let rst1 = plan(&app1);
    let rst2 = plan(&app2);
    let default = RegionStripeTable::uniform(FILE, vec![64 * KIB, 64 * KIB]);

    let harl = run_shared(
        &SimContext::new(),
        &cluster,
        &[(&rst1, &app1), (&rst2, &app2)],
        &ccfg,
    );
    let base = run_shared(
        &SimContext::new(),
        &cluster,
        &[(&default, &app1), (&default, &app2)],
        &ccfg,
    );
    assert!(
        harl.combined.throughput_mib_s() > 1.3 * base.combined.throughput_mib_s(),
        "per-app HARL under contention: {:.0} vs {:.0}",
        harl.combined.throughput_mib_s(),
        base.combined.throughput_mib_s()
    );
    // Both apps individually benefit too.
    for (h, d) in harl.per_app.iter().zip(&base.per_app) {
        assert!(h.throughput_mib_s > d.throughput_mib_s);
    }
}

#[test]
fn straggler_injection_visible_end_to_end() {
    use harl_repro::pfs::Degradation;
    let ccfg = CollectiveConfig::default();
    let w = ior(OpKind::Read, 512 * KIB, 5);
    let rst = RegionStripeTable::uniform(FILE, vec![32 * KIB, 160 * KIB]);

    let healthy = ClusterConfig::paper_default();
    let degraded = ClusterConfig::paper_default().with_degradation(Degradation::permanent(6, 4.0));
    let a = run_workload(&SimContext::new(), &healthy, &rst, &w, &ccfg);
    let b = run_workload(&SimContext::new(), &degraded, &rst, &w, &ccfg);
    assert!(
        b.throughput_mib_s() < 0.6 * a.throughput_mib_s(),
        "an SServer straggler must hurt an SSD-heavy layout"
    );
}

#[test]
fn k_profile_model_agrees_with_two_class_on_pair_clusters() {
    // A pair cluster stated as K = 3 with an empty third class costs every
    // request exactly as its K = 2 model does: a class without servers
    // holds no bytes and starts nothing.
    let cluster = ClusterConfig::paper_default();
    let pair = MultiProfileModel::from_cluster(&cluster);
    let mut padded = pair.clone();
    padded.classes.push(ClassParams {
        count: 0,
        read: nvme_2020_preset().read,
        write: nvme_2020_preset().write,
    });
    let (pair, padded) = (CostKernel::new(&pair), CostKernel::new(&padded));
    for (offset, size) in [(0u64, 512 * KIB), (123 * KIB, 2 * MIB), (7 * KIB, 4 * KIB)] {
        for op in OpKind::ALL {
            let a = pair.request_cost(offset, size, op, &[48 * KIB, 96 * KIB]);
            let b = padded.request_cost(offset, size, op, &[48 * KIB, 96 * KIB, 64 * KIB]);
            assert_eq!(a.to_bits(), b.to_bits(), "({offset}, {size}, {op})");
        }
    }
}

#[test]
fn analysis_summary_matches_workload_shape() {
    use harl_repro::harl::summarize;
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    let w = ior(OpKind::Write, 512 * KIB, 6);
    let trace = collect_trace_lowered(&cluster, &w, &ccfg);
    let s = summarize(&trace);
    assert_eq!(s.requests, trace.len());
    assert_eq!(s.read_fraction, 0.0);
    assert_eq!(s.mean_size as u64, 512 * KIB);
    assert_eq!(s.ranks, 8);
    assert!(s.sequentiality < 0.2, "random IOR must not look sequential");
    assert_eq!(s.pattern_label(), "random/uniform");
}

#[test]
fn metadata_stays_bounded_on_adversarial_trace() {
    // Alternating request sizes try to force one region per request; the
    // threshold adaptation must keep the RST metadata bounded by the
    // fixed-size division (Sec. III-C).
    let cluster = ClusterConfig::paper_default();
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let mut records = Vec::new();
    for i in 0..2048u64 {
        let size = if i % 2 == 0 { 16 * KIB } else { 2 * MIB };
        records.push(TraceRecord {
            rank: (i % 8) as u32,
            fd: 0,
            op: OpKind::Read,
            offset: i * 2 * MIB,
            size,
            timestamp: SimNanos::from_nanos(i),
        });
    }
    let file_size = 2048 * 2 * MIB; // 4 GiB
    let trace = Trace::from_records(records);
    let rst = HarlPolicy::new(model).plan(&SimContext::new(), &trace, file_size);
    let max_regions = file_size.div_ceil(64 << 20);
    assert!(
        (rst.len() as u64) <= max_regions,
        "{} regions exceed the fixed-division bound {}",
        rst.len(),
        max_regions
    );
    assert!(rst.metadata_bytes() <= max_regions * 32);
}
