//! The degraded-downlink chaos scenario, alone in its own test binary.
//!
//! Besides completion, partial frames and honest completeness ratios,
//! it checks that the runtime joins every thread it spawns by reading
//! the process-wide thread count before and after the run. Sibling
//! tests running in parallel in the same binary would add their own
//! runtime threads to that count, so this binary holds this one test
//! only.

mod common;

use common::chaos::{chaos_plan, req, thread_count};
use geostreams::dsms::protocol::OutputFormat;
use geostreams::dsms::{run_supervised, RuntimeConfig, ServerMetrics};
use geostreams::satsim::goes_like;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn degraded_downlink_completes_with_partial_frames() {
    let scanner = goes_like(64, 32, 11);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        fault_plan: Some(chaos_plan(1234)),
        watchdog: Some(Duration::from_secs(30)),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![
        req("goes-sim.b4-ir", OutputFormat::Stats),
        req("stretch(goes-sim.b4-ir, \"linear\")", OutputFormat::Stats),
        req("goes-sim.b1-vis", OutputFormat::PngGray),
    ];
    let threads_before = thread_count();
    let started = Instant::now();
    let (results, stats) = run_supervised(&scanner, 4, &requests, &config).unwrap();
    let elapsed = started.elapsed();

    // Every query completed, well inside the watchdog deadline and
    // without being cancelled.
    assert_eq!(results.len(), 3);
    assert!(elapsed < Duration::from_secs(30), "queries must not run into the watchdog");
    assert_eq!(stats.watchdog_cancellations, 0);
    for r in &results {
        let r = r.as_ref().unwrap();
        assert!(!r.cancelled);
        // Even over a damaged downlink, the repaired streams the
        // operators actually saw obeyed the §12 bracketing protocol:
        // the debug-build runtime validator observed zero violations.
        if let Some(report) = &r.report {
            assert_eq!(report.protocol_violations, 0, "query {} violated the protocol", r.id);
        }
        // The repair stage quantified the damage instead of hiding it.
        let repair = &r.repair[0];
        assert!(repair.stats.completeness() < 1.0, "8% row drops must show");
        assert!(repair.stats.completeness() > 0.5, "most data still arrives");
        assert!(repair.stats.gaps > 0);
        // Completeness ratios are internally consistent: per-sector
        // received sums to the stream total, and each ratio is sane.
        let sum: u64 = repair.sectors.iter().map(|s| s.received_points).sum();
        assert_eq!(sum, repair.stats.received_points);
        for s in &repair.sectors {
            assert!(s.received_points <= s.expected_points);
            assert!(s.ratio() > 0.0 && s.ratio() <= 1.0);
        }
        assert_eq!(repair.sectors.len(), 4, "all announced sectors accounted for");
    }
    // The frame-scoped stretch (query 1) terminated over lost rows and
    // markers — the exact failure mode that used to block forever.
    let stretched = results[1].as_ref().unwrap();
    assert!(stretched.report.as_ref().unwrap().points_delivered > 0);
    // PNG delivery produced one (partial) image per surviving sector.
    let png = results[2].as_ref().unwrap();
    assert!(!png.frames.is_empty());
    // Recovery metrics surfaced through the PR 1 registry.
    assert!(metrics.gaps_detected.get() > 0);
    assert!(metrics.partial_frames.get() > 0);
    assert!(metrics.duplicates_dropped.get() > 0);
    let rendered = metrics.render_prometheus();
    assert!(rendered.contains("geostreams_gaps_detected_total"));
    // The protocol-violation counter is exposed and stayed at zero.
    assert!(rendered.contains("geostreams_protocol_violation_total"));
    assert_eq!(metrics.protocol_violations.get(), 0);
    assert!(rendered.contains("geostreams_partial_frames_total"));

    // No thread leaks: everything the runtime spawned was joined.
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        assert!(after <= before, "thread leak: {before} -> {after}");
    }
}
