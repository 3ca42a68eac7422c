//! Seeded chaos acceptance suite: the supervised DSMS runtime over a
//! deliberately degraded GOES-like downlink.
//!
//! The scenarios of ISSUE 3: ≥5% dropped rows plus duplicates and
//! disorder must leave every registered query *completing* (within its
//! watchdog deadline, with partial frames and honest completeness
//! ratios) instead of blocking forever; an injected ingest crash must
//! surface as a supervised restart; and everything must be
//! byte-identical across two runs with the same seed. The degraded-
//! downlink scenario, which also checks for thread leaks, lives in
//! `tests/chaos_threads.rs`.

mod common;

use common::chaos::{chaos_plan, req};
use geostreams::dsms::protocol::OutputFormat;
use geostreams::dsms::{run_supervised, FanoutPolicy, RuntimeConfig, ServerMetrics};
use geostreams::satsim::goes_like;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn same_seed_is_byte_identical() {
    let run = || {
        let scanner = goes_like(64, 32, 11);
        let config = RuntimeConfig {
            fault_plan: Some(chaos_plan(77)),
            // Generous so timing-dependent shedding can never differ.
            channel_cap: 1 << 16,
            watchdog: Some(Duration::from_secs(60)),
            ..RuntimeConfig::default()
        };
        let requests = vec![
            req("goes-sim.b1-vis", OutputFormat::PngGray),
            req("goes-sim.b4-ir", OutputFormat::Stats),
        ];
        run_supervised(&scanner, 3, &requests, &config).unwrap()
    };
    let (a, astats) = run();
    let (b, bstats) = run();

    // Frame payloads byte-for-byte.
    let fa = &a[0].as_ref().unwrap().frames;
    let fb = &b[0].as_ref().unwrap().frames;
    assert_eq!(fa.len(), fb.len());
    assert!(!fa.is_empty());
    for (x, y) in fa.iter().zip(fb.iter()) {
        assert_eq!(x.png, y.png);
    }
    // Stats, repair outcomes and fault injections identical.
    for (ra, rb) in a.iter().zip(&b) {
        let (ra, rb) = (ra.as_ref().unwrap(), rb.as_ref().unwrap());
        assert_eq!(ra.points, rb.points);
        assert_eq!(ra.repair.len(), rb.repair.len());
        for (xa, xb) in ra.repair.iter().zip(&rb.repair) {
            assert_eq!(xa.stats, xb.stats);
            assert_eq!(xa.sectors, xb.sectors);
        }
    }
    assert_eq!(astats.elements_per_band, bstats.elements_per_band);
    assert_eq!(astats.faults_per_band, bstats.faults_per_band);
}

#[test]
fn ingest_crash_restarts_and_feed_resumes() {
    let scanner = goes_like(64, 32, 11);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        // Crash the decoder partway through sector 1 of 4; keep a mild
        // degradation active so the restarted feed is still chaotic.
        fault_plan: Some(chaos_plan(5).with_death_after(500)),
        backoff_base: Duration::from_millis(1),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let (results, stats) =
        run_supervised(&scanner, 4, &[req("goes-sim.b1-vis", OutputFormat::Stats)], &config)
            .unwrap();
    assert!(stats.restarts >= 1, "{stats:?}");
    assert_eq!(metrics.ingest_restarts.get(), stats.restarts);
    assert!(stats.faults_per_band.iter().any(|(_, f)| f.died));
    // The query saw sectors from both sides of the crash.
    let r = results[0].as_ref().unwrap();
    let repair = &r.repair[0];
    assert!(repair.sectors.len() >= 2, "{:?}", repair.sectors);
    let max_sector = repair.sectors.iter().map(|s| s.sector_id).max().unwrap();
    assert!(max_sector >= 2, "feed did not resume past the crash: {:?}", repair.sectors);
}

#[test]
fn hung_query_is_cancelled_without_stalling_siblings() {
    let scanner = goes_like(64, 32, 11);
    let metrics = Arc::new(ServerMetrics::new());
    let config = RuntimeConfig {
        fanout: FanoutPolicy::Shed,
        watchdog: Some(Duration::from_millis(400)),
        // Query 1 stalls 30s per element: hopelessly wedged.
        query_stall: vec![(1, Duration::from_secs(30))],
        marker_patience: Duration::from_millis(100),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![
        req("goes-sim.b4-ir", OutputFormat::Stats),
        req("goes-sim.b4-ir", OutputFormat::Stats),
    ];
    let started = Instant::now();
    let (results, stats) = run_supervised(&scanner, 2, &requests, &config).unwrap();
    assert!(started.elapsed() < Duration::from_secs(20), "cancellation must not hang");
    let healthy = results[0].as_ref().unwrap();
    let wedged = results[1].as_ref().unwrap();
    assert!(!healthy.cancelled);
    assert_eq!(healthy.report.as_ref().unwrap().points_delivered, 2 * 16 * 8);
    assert!(wedged.cancelled);
    assert_eq!(stats.watchdog_cancellations, 1);
    assert_eq!(metrics.watchdog_cancellations.get(), 1);
}

#[test]
fn band_shed_is_counted_once_and_never_per_tenant() {
    let scanner = goes_like(64, 32, 11);
    let metrics = Arc::new(ServerMetrics::new());
    // Two unshared queries on one band. Query 1 stalls on every item
    // for longer than the marker patience against a small channel, so
    // the band fan-out must shed it (point runs first, then the whole
    // subscriber once a framing marker cannot land) while query 0
    // keeps the full stream.
    let config = RuntimeConfig {
        fanout: FanoutPolicy::Shed,
        channel_cap: 8,
        query_stall: vec![(1, Duration::from_millis(80))],
        marker_patience: Duration::from_millis(40),
        metrics: Some(Arc::clone(&metrics)),
        ..RuntimeConfig::default()
    };
    let requests = vec![
        req("goes-sim.b1-vis", OutputFormat::Stats),
        req("scale(goes-sim.b1-vis, 2, 0)", OutputFormat::Stats),
    ];
    let started = Instant::now();
    let (results, stats) = run_supervised(&scanner, 3, &requests, &config).unwrap();
    assert!(started.elapsed() < Duration::from_secs(20), "a slow query must not stall the band");

    // Band-level shed lands in the run stats and the fan-out counter,
    // and never in the per-tenant account of the subscription trees.
    assert!(stats.shed_elements > 0, "{stats:?}");
    assert_eq!(stats.shed_elements, metrics.fanout_shed.get());
    assert!(stats.shed_per_tenant.is_empty(), "{:?}", stats.shed_per_tenant);

    // The healthy sibling delivered every point of the clean feed.
    let lossless = RuntimeConfig { fanout: FanoutPolicy::Blocking, ..RuntimeConfig::default() };
    let single = [req("goes-sim.b1-vis", OutputFormat::Stats)];
    let (oracle, _) = run_supervised(&scanner, 3, &single, &lossless).unwrap();
    assert_eq!(results[0].as_ref().unwrap().points, oracle[0].as_ref().unwrap().points);
}
