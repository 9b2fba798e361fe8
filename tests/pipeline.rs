//! End-to-end integration tests across all workspace crates: the full
//! trace → analyse → place → simulate pipeline.

use harl_repro::prelude::*;

const QUICK_FILE: u64 = 256 << 20; // 256 MiB keeps each sim < 1s

fn ior(op: OpKind, processes: usize, request_size: u64) -> Workload {
    IorConfig {
        processes,
        request_size,
        file_size: QUICK_FILE,
        op,
        order: AccessOrder::Random,
        seed: 42,
    }
    .build()
}

fn harl(cluster: &ClusterConfig) -> HarlPolicy {
    HarlPolicy::new(MultiProfileModel::from_cluster_calibrated(
        cluster,
        &CalibrationConfig::default(),
    ))
}

#[test]
fn harl_beats_default_for_reads() {
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Read, 16, 512 * KIB);
    let ccfg = CollectiveConfig::default();
    let (_, h) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);
    let (_, d) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &FixedPolicy::new(64 * KIB),
        &w,
        &ccfg,
    );
    let gain = h.throughput_mib_s() / d.throughput_mib_s();
    assert!(
        gain > 1.3,
        "expected a solid read win, got {:.2}x ({:.0} vs {:.0} MiB/s)",
        gain,
        h.throughput_mib_s(),
        d.throughput_mib_s()
    );
}

#[test]
fn harl_beats_default_for_writes() {
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Write, 16, 512 * KIB);
    let ccfg = CollectiveConfig::default();
    let (_, h) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);
    let (_, d) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &FixedPolicy::new(64 * KIB),
        &w,
        &ccfg,
    );
    assert!(h.throughput_mib_s() > 1.3 * d.throughput_mib_s());
}

#[test]
fn harl_at_least_matches_every_fixed_stripe() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    for &req in &[128 * KIB, 512 * KIB, 1024 * KIB] {
        let w = ior(OpKind::Read, 16, req);
        let (_, h) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);
        for &stripe in &[16 * KIB, 64 * KIB, 256 * KIB, 1024 * KIB, 2048 * KIB] {
            let (_, f) = trace_plan_run(
                &SimContext::new(),
                &cluster,
                &FixedPolicy::new(stripe),
                &w,
                &ccfg,
            );
            assert!(
                h.throughput_mib_s() >= 0.98 * f.throughput_mib_s(),
                "HARL ({:.0}) lost to fixed {} ({:.0}) at request size {}",
                h.throughput_mib_s(),
                ByteSize(stripe),
                f.throughput_mib_s(),
                ByteSize(req)
            );
        }
    }
}

#[test]
fn end_to_end_is_deterministic() {
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Read, 8, 512 * KIB);
    let ccfg = CollectiveConfig::default();
    let (rst1, r1) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);
    let (rst2, r2) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);
    assert_eq!(rst1, rst2);
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.bytes_read, r2.bytes_read);
}

#[test]
fn bytes_are_conserved_through_the_stack() {
    // Workload bytes == trace bytes == simulated bytes, through region
    // splitting and placement.
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Write, 16, 512 * KIB);
    let (expected_read, expected_written) = w.total_bytes();
    let ccfg = CollectiveConfig::default();

    let trace = collect_trace_lowered(&cluster, &w, &ccfg);
    let (t_read, t_written) = trace.total_bytes();
    assert_eq!((t_read, t_written), (expected_read, expected_written));

    let (_, report) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);
    assert_eq!(report.bytes_read, expected_read);
    assert_eq!(report.bytes_written, expected_written);

    // Per-server device bytes also add up to the total moved.
    let device_bytes: u64 = report.servers.iter().map(|s| s.bytes).sum();
    assert_eq!(device_bytes, expected_read + expected_written);
}

#[test]
fn btio_pipeline_with_collectives() {
    let cluster = ClusterConfig::paper_default();
    let cfg = BtioConfig {
        grid: 32,
        steps: 4,
        write_interval: 2,
        processes: 4,
        compute_per_step: SimNanos::from_millis(1),
    };
    let w = cfg.build();
    let ccfg = CollectiveConfig::default();
    let (_, h) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);
    let (_, d) = trace_plan_run(
        &SimContext::new(),
        &cluster,
        &FixedPolicy::new(64 * KIB),
        &w,
        &ccfg,
    );
    assert_eq!(h.bytes_written, cfg.file_size());
    assert_eq!(h.bytes_read, cfg.file_size());
    assert!(
        h.makespan <= d.makespan,
        "HARL BTIO {h} should not lose to default {d}",
        h = h.makespan,
        d = d.makespan
    );
}

#[test]
fn replayed_trace_reproduces_workload_behaviour() {
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Read, 4, 256 * KIB);
    let ccfg = CollectiveConfig::default();
    let trace = collect_trace(&w);
    let replayed = replay(&trace);
    let rst = RegionStripeTable::uniform(QUICK_FILE, vec![64 * KIB, 64 * KIB]);
    let a = run_workload(&SimContext::new(), &cluster, &rst, &w, &ccfg);
    let b = run_workload(&SimContext::new(), &cluster, &rst, &replayed, &ccfg);
    assert_eq!(a.bytes_read, b.bytes_read);
    assert_eq!(
        a.makespan, b.makespan,
        "replay must be behaviourally identical"
    );
}

#[test]
fn rst_artifacts_round_trip_and_still_run() {
    let cluster = ClusterConfig::paper_default();
    let w = ior(OpKind::Read, 8, 128 * KIB);
    let ccfg = CollectiveConfig::default();
    let (rst, before) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);

    let dir = std::env::temp_dir().join("harl-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipeline.rst.json");
    rst.save_to_path(&path).unwrap();
    let reloaded = RegionStripeTable::load_from_path(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded, rst);

    let after = run_workload(&SimContext::new(), &cluster, &reloaded, &w, &ccfg);
    assert_eq!(after.makespan, before.makespan);
}

#[test]
fn zero_h_regions_keep_hservers_idle() {
    // A plan that stores a region on SServers only must not touch HServers
    // when that region is accessed.
    let cluster = ClusterConfig::paper_default();
    let rst = RegionStripeTable::uniform(QUICK_FILE, vec![0, 64 * KIB]);
    let w = ior(OpKind::Read, 8, 128 * KIB);
    let report = run_workload(
        &SimContext::new(),
        &cluster,
        &rst,
        &w,
        &CollectiveConfig::default(),
    );
    for server in &report.servers[..6] {
        assert_eq!(server.disk_jobs, 0, "HServer {} was used", server.id);
        assert_eq!(server.bytes, 0);
    }
    assert!(report.servers[6].bytes > 0);
}

#[test]
fn mixed_read_write_workload_runs() {
    let cluster = ClusterConfig::paper_default();
    let mut w = Workload::with_ranks(4);
    for (r, prog) in w.ranks.iter_mut().enumerate() {
        let base = r as u64 * (QUICK_FILE / 4);
        for i in 0..16u64 {
            prog.push_request(LogicalRequest::write(base + i * 512 * KIB, 512 * KIB));
        }
        for i in 0..16u64 {
            prog.push_request(LogicalRequest::read(base + i * 512 * KIB, 512 * KIB));
        }
    }
    let ccfg = CollectiveConfig::default();
    let (rst, report) = trace_plan_run(&SimContext::new(), &cluster, &harl(&cluster), &w, &ccfg);
    assert!(!rst.is_empty());
    assert_eq!(report.bytes_read, report.bytes_written);
    assert!(report.read_latency.count() > 0 && report.write_latency.count() > 0);
}

#[test]
fn k_profile_cluster_simulates() {
    // Three classes end to end at the pfs level.
    let cluster = ClusterConfig::hybrid(4, 2).with_extra_class(2, nvme_2020_preset());
    let layout = FileLayout::custom(
        (0..8)
            .map(|id| (id, if id < 4 { 16 * KIB } else { 64 * KIB }))
            .collect(),
    );
    let mut prog = ClientProgram::new();
    for i in 0..32u64 {
        prog.push_request(PhysRequest::read(0, i * 512 * KIB, 512 * KIB));
    }
    let report = simulate(&SimContext::new(), &cluster, &[layout], &[prog]);
    assert_eq!(report.bytes_read, 32 * 512 * KIB);
    assert!(report.servers.iter().all(|s| s.bytes > 0));
}
