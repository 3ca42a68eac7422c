//! Continuous shared-ingest execution under supervision.
//!
//! `Dsms::run_query` lets every query pull its own source instances —
//! convenient, but a real receiving station decodes the downlink
//! **once**. This module implements the actual Fig. 3 dataflow: one
//! ingest thread per referenced spectral band publishes the element
//! stream into a [`SubscriptionTree`] — the runtime's one fan-out
//! primitive, also used by shared-plan nodes — and each registered
//! continuous query runs its optimized pipeline on its own thread over
//! channel-backed, gap-repaired sources.
//!
//! Unlike the happy-path version this grew from, the runtime is
//! **supervised** (see DESIGN.md "Fault model & recovery"):
//!
//! * every ingest thread runs under a per-band supervisor that detects
//!   death (panic, injected crash, truncated downlink) and restarts the
//!   feed with capped exponential backoff, resuming at the next scan
//!   sector — restarts count into
//!   `geostreams_ingest_restarts_total`; the band's tree outlives the
//!   attempts and is closed when the feed ends;
//! * fan-out is non-blocking under [`FanoutPolicy::Shed`]: a slow
//!   subscriber loses points (counted in
//!   `geostreams_fanout_shed_total`) instead of head-of-line-blocking
//!   every sibling query through the bounded channels, and a subscriber
//!   that stays wedged past a patience window is declared dead;
//! * each query's sources are wrapped in
//!   [`StreamRepair`](geostreams_core::model::StreamRepair), so frame-
//!   scoped operators emit *partial* frames with completeness ratios
//!   instead of blocking forever on rows the downlink lost;
//! * an optional per-query watchdog cancels (not hangs) a query that
//!   exceeds its deadline — e.g. one wedged on a stalled client — and
//!   counts into `geostreams_watchdog_cancellations_total`.
//!
//! Degradation is injected deterministically via
//! [`FaultPlan`](geostreams_satsim::FaultPlan): same seed, same faults,
//! byte-identical results (`scripts/chaos.sh` diffs two runs).

use crate::metrics::ServerMetrics;
use crate::protocol::{ClientRequest, OutputFormat};
use crate::server::{QueryResult, SourceRepair};
use crate::share::{
    band_refs, plan_sharing, share_refs, share_source_name, SharedItem, SubscriptionTree,
};
use geostreams_core::exec::{compile_stages, run_morsels, split_parallel, RunReport, WorkerPool};
use geostreams_core::model::{
    BoxedF32Stream, ChannelLike, ChunkChannel, ChunkOrMarker, GeoStream, Marker, RepairCounters,
    RepairProbe, StreamRepair, StreamSchema, DEFAULT_CHUNK_BUDGET,
};
use geostreams_core::obs::{
    now_ns, Counter, HistogramSnapshot, PipelineObs, SpanGuard, SpanOutcome, SpanStream,
    TraceContext,
};
use geostreams_core::ops::delivery::PngSink;
use geostreams_core::query::{
    analyze_with, key_hex, merged_source_windows, optimize, parse_query, AnalyzeOptions, Catalog,
    Expr, Planner, ReplayProvider, TimeWindow,
};
use geostreams_core::{CoreError, Result};
use geostreams_raster::png::PngOptions;
use geostreams_satsim::{ChaosStream, FaultPlan, FaultStats, Scanner};
use geostreams_store::{Archive, ArchiveReplay, SpliceStream, StoreMetrics};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default channel capacity per subscriber: how many chunked items a
/// slow query may lag behind the downlink before the fan-out policy
/// kicks in.
const CHANNEL_CAP: usize = 8192;

/// Poll interval for watchdog-aware channel reads and stall slicing.
const POLL: Duration = Duration::from_millis(20);

/// How the per-band ingest pump treats a subscriber whose bounded
/// channel is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanoutPolicy {
    /// Lossless blocking send: back-pressure is absolute, but one hung
    /// subscriber stalls the whole band (the legacy behavior; kept for
    /// compatibility and for callers that prefer loss-free delivery).
    Blocking,
    /// Never block ingest: points are shed (and counted) the moment a
    /// subscriber's buffer is full; framing markers are retried within
    /// a patience window, after which the subscriber is declared dead
    /// and unsubscribed.
    #[default]
    Shed,
}

/// Tuning knobs of the supervised runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Bounded-channel capacity per (query, band) subscription.
    pub channel_cap: usize,
    /// Fan-out policy for full subscriber buffers.
    pub fanout: FanoutPolicy,
    /// Per-query deadline; a query still running past it is cancelled
    /// (its sources end early and buffered scopes flush partial).
    /// `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Maximum supervised restarts per band before giving up on the
    /// feed.
    pub max_restarts: u32,
    /// First restart backoff; doubles per consecutive restart.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// How long the shed policy retries a framing marker into a full
    /// buffer before declaring the subscriber dead.
    pub marker_patience: Duration,
    /// Deterministic downlink degradation applied to every ingested
    /// band (`None` = clean feed).
    pub fault_plan: Option<FaultPlan>,
    /// Artificial per-element processing stall for selected queries
    /// (request index → stall), simulating slow or wedged clients; the
    /// watchdog cuts through the stall.
    pub query_stall: Vec<(usize, Duration)>,
    /// Server metrics to surface recovery actions on (`/metrics`).
    pub metrics: Option<Arc<ServerMetrics>>,
    /// Tiled raster archive. When set, every ingested element is also
    /// persisted, and queries whose temporal restriction reaches before
    /// [`RuntimeConfig::start_sector`] are served from the archive —
    /// alone (wholly past) or spliced into the live feed (hybrid).
    pub archive: Option<Arc<Archive>>,
    /// First live scan sector — the runtime's "now". Live feeds join
    /// the downlink here; earlier sectors exist only in the archive.
    pub start_sector: u64,
    /// Retention knob applied to the attached archive at run start:
    /// maximum archive bytes (`None` keeps the archive's own setting).
    pub archive_max_bytes: Option<u64>,
    /// Retention knob: maximum archived frames (`None` keeps the
    /// archive's own setting). Eviction is segment-granular.
    pub archive_max_frames: Option<u64>,
    /// Multi-query plan sharing (DESIGN.md §16): when enabled, admitted
    /// counting queries with structurally-equal canonical plans — or
    /// common subplans across different plans — are evaluated once per
    /// chunk and multicast through subscription trees. Off by default:
    /// shared evaluation trades the per-query scan→deliver span chains
    /// of the legacy path for O(distinct plans) cost, so swarm mode is
    /// opt-in. The legacy one-pipeline-per-query path is the unshared
    /// oracle `swarm_bench` and the sharing tests compare against.
    pub share_plans: bool,
    /// Tenant of each request (request index → tenant name), used for
    /// per-tenant shed accounting on shared plans. Unlisted requests
    /// belong to the `"default"` tenant.
    pub tenants: Vec<(usize, String)>,
    /// Morsel-execution workers (DESIGN.md §17). The runtime owns one
    /// work-stealing pool of this many threads; counting queries
    /// (`Stats`/`Json`) and shared-plan evaluators fan their
    /// data-parallel operator suffix out to it, morsel by morsel, and
    /// merge back in lattice order — output is byte-identical at every
    /// worker count. `0` executes kernels inline on the driver thread
    /// (same code path, no extra threads).
    pub exec_workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            channel_cap: CHANNEL_CAP,
            fanout: FanoutPolicy::Shed,
            watchdog: None,
            max_restarts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
            marker_patience: Duration::from_secs(2),
            fault_plan: None,
            query_stall: Vec::new(),
            metrics: None,
            archive: None,
            start_sector: 0,
            archive_max_bytes: None,
            archive_max_frames: None,
            share_plans: false,
            tenants: Vec::new(),
            exec_workers: 1,
        }
    }
}

/// How one source of an admitted query is served.
enum SourceRoute {
    /// Replay of a wholly-past window; no live subscription at all.
    ArchiveOnly(ArchiveReplay),
    /// Backfill-from-archive spliced into the live channel at the
    /// recorded watermark sector.
    Hybrid { replay: ArchiveReplay, watermark: Option<u64> },
}

/// Statistics of one continuous run.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    /// Elements fanned out per band (band id → elements).
    pub elements_per_band: Vec<(u16, u64)>,
    /// Supervised ingest restarts per band (band id → restarts).
    pub restarts_per_band: Vec<(u16, u32)>,
    /// Total supervised ingest restarts.
    pub restarts: u64,
    /// Elements shed by the fan-out instead of blocking.
    pub shed_elements: u64,
    /// Queries cancelled by the watchdog.
    pub watchdog_cancellations: u64,
    /// Injected-fault counters per band (band id → stats), present
    /// when a fault plan was active.
    pub faults_per_band: Vec<(u16, FaultStats)>,
    /// Distinct shared plans (DAG nodes) the sharing runtime evaluated
    /// (0 = every query ran the legacy per-query path).
    pub shared_plans: u64,
    /// Chunked items delivered to shared-plan subscribers.
    pub shared_chunks_multicast: u64,
    /// Chunk payloads deep-copied anywhere in the fan-out (0 = every
    /// payload travelled by `Arc` reference only).
    pub payload_copies: u64,
    /// Elements shed by subscription trees, per tenant (sorted).
    pub shed_per_tenant: Vec<(String, u64)>,
}

/// Progress shared between an ingest attempt and its supervisor, so a
/// restart can resume behind the last delivered sector.
#[derive(Default)]
struct PumpProgress {
    elements: AtomicU64,
    /// `sector_id + 1` of the last `SectorStart` pumped (0 = none).
    last_sector: AtomicU64,
}

/// Runs a set of continuous queries over a scanner with shared ingest:
/// each referenced band is generated once and fanned out. Legacy
/// lossless entry point — equivalent to [`run_supervised`] with
/// [`FanoutPolicy::Blocking`], no watchdog and a clean feed.
///
/// Returns per-query results in request order, plus ingest statistics.
pub fn run_continuous(
    scanner: &Scanner,
    n_sectors: u64,
    requests: &[ClientRequest],
) -> Result<(Vec<Result<QueryResult>>, IngestStats)> {
    let config = RuntimeConfig { fanout: FanoutPolicy::Blocking, ..RuntimeConfig::default() };
    run_supervised(scanner, n_sectors, requests, &config)
}

/// Runs a set of continuous queries over a scanner with shared,
/// supervised ingest (see the module docs for the recovery model).
pub fn run_supervised(
    scanner: &Scanner,
    n_sectors: u64,
    requests: &[ClientRequest],
    config: &RuntimeConfig,
) -> Result<(Vec<Result<QueryResult>>, IngestStats)> {
    // Schema-only catalog for parsing/optimizing (factories unused here).
    let mut schema_catalog = Catalog::new();
    for band_idx in 0..scanner.instrument.bands.len() {
        let template = scanner.band_stream(band_idx, 1);
        let schema = template.schema().clone();
        let scanner2 = scanner.clone();
        schema_catalog.register(schema, move || Box::new(scanner2.band_stream(band_idx, 1)));
    }

    // Archive context: "now" is the first live sector; retention knobs
    // and metric handles are applied before any query is admitted.
    let now = config.start_sector as i64;
    if let Some(archive) = &config.archive {
        if config.archive_max_bytes.is_some() || config.archive_max_frames.is_some() {
            archive.set_retention(config.archive_max_bytes, config.archive_max_frames)?;
        }
        if let Some(m) = &config.metrics {
            archive.attach_metrics(StoreMetrics::register(m.registry()));
        }
        // Surface what crash recovery did when the archive was opened:
        // the report also carries the WAL-committed per-band watermarks
        // that `archive.watermark()` was re-anchored to, which is where
        // hybrid splices pick up their handoff point below.
        let report = archive.recovery_report();
        if !report.clean() {
            eprintln!(
                "archive recovery: {} frames restored, {} frames lost (uncommitted), \
                 {} bytes discarded, {} segments repaired, {} truncated, {} removed; \
                 resuming at watermarks {:?}",
                report.frames_recovered,
                report.frames_discarded,
                report.bytes_discarded,
                report.segments_repaired,
                report.segments_truncated,
                report.segments_removed,
                report.watermarks,
            );
        }
    }
    let store_metrics = match (&config.archive, &config.metrics) {
        (Some(_), Some(m)) => Some(StoreMetrics::register(m.registry())),
        _ => None,
    };
    let analyze_opts = AnalyzeOptions {
        now: Some(now),
        replay: config.archive.as_deref().map(|a| a as &dyn ReplayProvider),
    };

    // One morsel-execution pool per runtime (DESIGN.md §17): counting
    // queries and shared-plan evaluators dispatch their data-parallel
    // stage suffix here, and archive replays decode independent tiles
    // on it once it has two or more workers (one worker would only add
    // a handoff), instead of spawning threads of their own. Worker
    // counters are published as `geostreams_exec_worker_*` once the run
    // settles.
    let exec_pool = Arc::new(WorkerPool::new(config.exec_workers));

    // Parse, optimize, and admit every request. A query whose plan
    // analysis carries errors (e.g. a wholly-past window with no
    // archive coverage — it would silently deliver nothing) gets a
    // per-query `PlanRejected` slot instead of failing the whole run.
    type Admitted = (Expr, OutputFormat, HashMap<String, SourceRoute>);
    let mut exprs: Vec<Result<Admitted>> = Vec::new();
    for (qid, req) in requests.iter().enumerate() {
        // Directory entry + flight recorder, minted at admission so the
        // query is observable (`GET /queries`, `GET /trace/<id>`) from
        // its very first span.
        if let Some(m) = &config.metrics {
            m.register_query(qid as u32, &req.query);
        }
        let expr = parse_query(&req.query)?;
        for name in expr.source_names() {
            if schema_catalog.schema(&name).is_none() {
                return Err(CoreError::UnknownSource(name));
            }
        }
        let expr = optimize(&expr, &schema_catalog);
        let plan = analyze_with(&expr, &schema_catalog, &analyze_opts);
        if plan.has_errors() || !plan.certificate.certified {
            if let Some(m) = &config.metrics {
                m.set_query_state(qid as u32, "rejected");
            }
            let reason = if plan.has_errors() {
                plan.render_errors()
            } else {
                format!(
                    "plan carries no valid protocol certificate: {}",
                    plan.certificate.violations.join("; ")
                )
            };
            exprs.push(Err(CoreError::PlanRejected(reason)));
            continue;
        }
        // Route each temporally-restricted source: wholly-past windows
        // replay from the archive with no live subscription; windows
        // that merely start in the past backfill `[lo, now)` and splice
        // into the live feed at the archive's frame watermark.
        let mut routes = HashMap::new();
        if let Some(archive) = &config.archive {
            for (name, sw) in merged_source_windows(&expr, &schema_catalog) {
                let w = sw.window;
                if w == TimeWindow::unbounded() || w.is_empty() {
                    continue;
                }
                let Some(band) = archive.band_of(&name) else { continue };
                if w.wholly_before(now) {
                    let replay = archive
                        .replay(band, w.lo, w.hi, sw.region.as_ref())?
                        .with_decode_pool(Arc::clone(&exec_pool));
                    routes.insert(name, SourceRoute::ArchiveOnly(replay));
                } else if w.starts_before(now) {
                    let replay = archive
                        .replay(band, w.lo, Some(now), sw.region.as_ref())?
                        .with_decode_pool(Arc::clone(&exec_pool));
                    let watermark = archive.watermark(band).map(|(s, _)| s);
                    routes.insert(name, SourceRoute::Hybrid { replay, watermark });
                }
            }
        }
        exprs.push(Ok((expr, req.format, routes)));
    }

    // Multi-query plan sharing (DESIGN.md §16): group eligible admitted
    // plans by canonical key and detect subplans shared across them.
    // Eligibility is conservative — counting formats only, no archive
    // routes, no watchdog — so the shared path can never change a
    // result the legacy path would have produced; everything else runs
    // per-query exactly as before.
    let mut eligible: Vec<(usize, Expr)> = Vec::new();
    if config.share_plans && config.watchdog.is_none() {
        for (qid, admitted) in exprs.iter().enumerate() {
            if let Ok((expr, format, routes)) = admitted {
                if matches!(format, OutputFormat::Stats | OutputFormat::Json) && routes.is_empty() {
                    eligible.push((qid, expr.clone()));
                }
            }
        }
    }
    let share_plan = plan_sharing(&eligible);
    let shared_qids: std::collections::HashSet<usize> =
        share_plan.nodes.iter().flat_map(|n| n.members.iter().copied()).collect();
    let tenant_of = |qid: usize| -> String {
        config
            .tenants
            .iter()
            .find(|(i, _)| *i == qid)
            .map_or_else(|| "default".to_string(), |(_, t)| t.clone())
    };

    // One subscription tree per ingested band: every query served
    // per-query subscribes a feed edge per live-served source, and
    // every shared-plan node one per referenced band — a whole group of
    // member queries costs one band subscription, not one each.
    // Archive-only sources never subscribe: their band need not be
    // ingested at all. Feed shed counts into the fan-out counter, never
    // into a tenant's account.
    type Rx = Receiver<SharedItem>;
    let mut band_trees: HashMap<String, Arc<SubscriptionTree>> = HashMap::new();
    let fanout_shed = config.metrics.as_ref().map(|m| m.fanout_shed.clone());
    let mut subscribe_band = |name: &str, depth| {
        let tree = band_trees.entry(name.to_string()).or_default();
        tree.subscribe_feed(config.channel_cap, depth, fanout_shed.clone())
    };
    let mut query_receivers: Vec<HashMap<String, Rx>> = Vec::new();
    for (qid, admitted) in exprs.iter().enumerate() {
        let mut receivers = HashMap::new();
        if let Ok((expr, _, routes)) = admitted {
            if !shared_qids.contains(&qid) {
                for name in expr.source_names() {
                    if matches!(routes.get(&name), Some(SourceRoute::ArchiveOnly(_))) {
                        continue;
                    }
                    let depth =
                        config.metrics.as_ref().and_then(|m| m.query_depth_gauge(qid as u32));
                    let rx = subscribe_band(&name, depth);
                    receivers.insert(name, rx);
                }
            }
        }
        query_receivers.push(receivers);
    }
    // Shared-plan DAG wiring, part 1: each node's band feed edges.
    let node_band_rx: Vec<HashMap<String, Rx>> = share_plan
        .nodes
        .iter()
        .map(|node| {
            band_refs(&node.expr)
                .into_iter()
                .map(|name| {
                    let rx = subscribe_band(&name, None);
                    (name, rx)
                })
                .collect()
        })
        .collect();

    // Per-band supervised ingest: a supervisor thread spawns the pump
    // in an inner thread (panic isolation), inspects its fate, and
    // restarts with capped exponential backoff, resuming at the sector
    // after the last one started.
    struct BandReport {
        band_id: u16,
        elements: u64,
        restarts: u32,
        faults: Option<FaultStats>,
    }
    let mut ingest_handles = Vec::new();
    let mut band_tree_list: Vec<Arc<SubscriptionTree>> = Vec::new();
    for (name, tree) in band_trees {
        let band_idx = scanner
            .instrument
            .bands
            .iter()
            .position(|b| format!("{}.{}", scanner.instrument.name, b.name) == name)
            .ok_or_else(|| CoreError::UnknownSource(name.clone()))?;
        let band_id = scanner.instrument.bands[band_idx].id;
        let scanner = scanner.clone();
        band_tree_list.push(Arc::clone(&tree));
        let plan = config.fault_plan.clone();
        let fanout = config.fanout;
        let marker_patience = config.marker_patience;
        let max_restarts = config.max_restarts;
        let backoff_base = config.backoff_base;
        let backoff_cap = config.backoff_cap;
        let metrics = config.metrics.clone();
        let archive = config.archive.clone();
        let first_sector = config.start_sector;
        ingest_handles.push(std::thread::spawn(move || -> BandReport {
            // Ingest observability: the shared-ingest runtime records
            // into the reserved `u32::MAX` flight recorder, and each
            // band exports how long its pump has made no progress.
            let rec = metrics.as_ref().map(|m| m.recorder(u32::MAX));
            let staleness = metrics
                .as_ref()
                .map(|m| m.registry().gauge("geostreams_band_staleness_ns", &[("band", &name)]));
            let mut attempt: u32 = 0;
            let mut start_sector: u64 = first_sector;
            let mut elements: u64 = 0;
            let mut faults: Option<FaultStats> = None;
            loop {
                let base = scanner.band_stream_from(band_idx, first_sector, n_sectors);
                let chaotic = matches!(&plan, Some(p) if !p.for_attempt(attempt).is_benign());
                let (probe, stream): (_, BoxedF32Stream) = match &plan {
                    Some(p) if chaotic => {
                        // Salt by band and attempt: bands sharing a
                        // seed degrade independently, and a restarted
                        // feed sees a fresh (still deterministic)
                        // fault pattern.
                        let salt = (u64::from(attempt) << 32) | u64::from(band_id);
                        let chaos = ChaosStream::new(base, p.for_attempt(attempt), salt);
                        (Some(chaos.probe()), Box::new(chaos))
                    }
                    _ => (None, Box::new(base)),
                };
                // Span chain for this attempt: scan ← chaos ← pump. The
                // pump guard travels into the pump thread, counts points
                // and stamps its context onto every chunk fanned out.
                let (attempt_spans, pump_span) = match &rec {
                    Some(rec) => {
                        let scan = rec.begin(&format!("scan:{name}#{attempt}"), 0);
                        let chaos = chaotic
                            .then(|| rec.begin(&format!("chaos:{name}#{attempt}"), scan.span_id()));
                        let parent = chaos.as_ref().map_or(scan.span_id(), SpanGuard::span_id);
                        let pump = rec.begin(&format!("pump:{name}#{attempt}"), parent);
                        (Some((scan, chaos)), Some(pump))
                    }
                    None => (None, None),
                };
                let tree2 = Arc::clone(&tree);
                let progress = Arc::new(PumpProgress::default());
                let progress2 = Arc::clone(&progress);
                let points_counter = metrics.as_ref().map(|m| m.points_ingested.clone());
                let archive2 = archive.clone();
                let inner = std::thread::spawn(move || {
                    pump(
                        stream,
                        &tree2,
                        &progress2,
                        start_sector,
                        fanout,
                        marker_patience,
                        points_counter,
                        archive2,
                        band_id,
                        pump_span,
                    );
                });
                // With metrics attached, the supervisor watches the pump
                // instead of blocking on it, feeding the band staleness
                // gauge from its element progress.
                if let Some(g) = &staleness {
                    let mut last_seen = progress.elements.load(Ordering::Relaxed);
                    let mut last_progress_ns = now_ns();
                    while !inner.is_finished() {
                        std::thread::sleep(POLL);
                        let seen = progress.elements.load(Ordering::Relaxed);
                        if seen != last_seen {
                            last_seen = seen;
                            last_progress_ns = now_ns();
                        }
                        g.set(now_ns().saturating_sub(last_progress_ns));
                    }
                    g.set(0);
                }
                let panicked = inner.join().is_err();
                let attempt_faults = probe.as_ref().map(|p| p.stats());
                elements += progress.elements.load(Ordering::Relaxed);
                let crashed =
                    panicked || attempt_faults.as_ref().is_some_and(|f| f.died || f.truncated);
                if let Some(f) = attempt_faults {
                    faults.get_or_insert_with(FaultStats::default).merge(&f);
                }
                if let Some((scan, chaos)) = attempt_spans {
                    let outcome = if crashed { SpanOutcome::Error } else { SpanOutcome::Ok };
                    if let Some(c) = chaos {
                        c.finish(outcome);
                    }
                    scan.finish(outcome);
                }
                if !crashed || attempt >= max_restarts {
                    break;
                }
                // Supervised restart: resume at the sector after the
                // last one the dead attempt began delivering (the
                // partial sector is lost; queries see it finalized
                // partial by their repair stage).
                attempt += 1;
                if let Some(m) = &metrics {
                    m.ingest_restarts.inc();
                }
                let last = progress.last_sector.load(Ordering::Relaxed);
                start_sector = start_sector.max(last);
                let exp = attempt.saturating_sub(1).min(16);
                // Bounded jitter: SplitMix64 over (band, attempt) maps
                // to a factor in [0.5, 1.5), so bands killed by the same
                // fault burst fan their restarts out instead of hammering
                // the shared archive lock in lockstep — while staying
                // deterministic for replayable supervision tests.
                let mut z = ((u64::from(band_id) << 32) | u64::from(attempt))
                    .wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let jitter = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64;
                let backoff =
                    backoff_base.saturating_mul(1u32 << exp).min(backoff_cap).mul_f64(jitter);
                if let Some(m) = &metrics {
                    m.ingest_backoff_ms.add(backoff.as_millis() as u64);
                }
                if let Some(rec) = &rec {
                    // Failure edge: leave a restart marker span and
                    // freeze the ring for postmortem inspection.
                    let t = now_ns();
                    let reason = if panicked { "panic" } else { "restart" };
                    rec.record_span(
                        &format!("{reason}:{name}#{attempt}"),
                        0,
                        t,
                        t,
                        0,
                        SpanOutcome::Error,
                    );
                    rec.freeze(&format!("{reason}:{name}"));
                }
                std::thread::sleep(backoff);
            }
            // Unsubscribe everyone: queries see end-of-stream.
            tree.close();
            BandReport { band_id, elements, restarts: attempt, faults }
        }));
    }

    // Query threads: pipelines over channel-backed, repaired catalogs.
    let repair_counters = config.metrics.as_ref().map(|m| RepairCounters {
        gaps: m.gaps_detected.clone(),
        duplicates: m.duplicates_dropped.clone(),
        disorder: m.disorder_detected.clone(),
        partial_frames: m.partial_frames.clone(),
    });
    // Chunk payloads travel the channels behind `Arc`s; a deep copy
    // happens only when a consumer must own a payload someone else
    // still references. This counts every such copy across the run.
    let payload_copies = Arc::new(AtomicU64::new(0));

    // Shared-plan DAG wiring, part 2: compute each node's output schema
    // (consumers register it under the synthetic `@share:*` source
    // name). Producers are resolved before consumers, so a node whose
    // body references another cut finds its schema already present.
    let key_of: HashMap<String, usize> =
        share_plan.nodes.iter().enumerate().map(|(i, n)| (share_source_name(n.key), i)).collect();
    let deps: Vec<Vec<usize>> = share_plan
        .nodes
        .iter()
        .map(|n| share_refs(&n.expr).iter().filter_map(|r| key_of.get(r).copied()).collect())
        .collect();
    let mut topo: Vec<usize> = Vec::new();
    {
        // The DAG is acyclic by construction (a cut's body references
        // only strictly smaller subexpressions); the growth check is a
        // defensive break, not an expected path.
        let mut placed = vec![false; share_plan.nodes.len()];
        while topo.len() < share_plan.nodes.len() {
            let before = topo.len();
            for i in 0..share_plan.nodes.len() {
                if !placed[i] && deps[i].iter().all(|&d| placed[d]) {
                    placed[i] = true;
                    topo.push(i);
                }
            }
            if topo.len() == before {
                break;
            }
        }
    }
    let mut share_schemas: HashMap<String, StreamSchema> = HashMap::new();
    for &i in &topo {
        let node = &share_plan.nodes[i];
        let planner = Planner::new(&schema_catalog);
        let mut schema = planner.build(&node.expr)?.schema().clone();
        let name = share_source_name(node.key);
        schema.name = name.clone();
        share_schemas.insert(name, schema.clone());
        let schema2 = schema.clone();
        schema_catalog
            .register(schema, move || Box::new(ChannelLike::new(schema2.clone(), || None)));
    }

    // Part 3: one subscription tree per node. Every edge — interior
    // (node → node) and query (node → member) — subscribes BEFORE any
    // evaluator starts, so no subscriber can miss the stream head.
    let share_counter = config.metrics.as_ref().map(|m| m.share_chunks_multicast.clone());
    let trees: Vec<Arc<SubscriptionTree>> = share_plan
        .nodes
        .iter()
        .map(|_| Arc::new(SubscriptionTree::new().with_counter(share_counter.clone())))
        .collect();
    let mut node_share_rx: Vec<Vec<(String, Rx)>> = Vec::new();
    for node in &share_plan.nodes {
        let mut rxs = Vec::new();
        for r in share_refs(&node.expr) {
            if let Some(&j) = key_of.get(&r) {
                rxs.push((r, trees[j].subscribe_interior(config.channel_cap)));
            }
        }
        node_share_rx.push(rxs);
    }
    let mut member_rx: HashMap<usize, Rx> = HashMap::new();
    for (i, node) in share_plan.nodes.iter().enumerate() {
        if let Some(m) = &config.metrics {
            m.share_subscribers_gauge(&key_hex(node.key)).set(node.members.len() as u64);
        }
        for &qid in &node.members {
            let tenant = tenant_of(qid);
            let depth = config.metrics.as_ref().and_then(|m| m.query_depth_gauge(qid as u32));
            let shed = config.metrics.as_ref().map(|m| m.share_shed_counter(&tenant));
            member_rx
                .insert(qid, trees[i].subscribe_query(config.channel_cap, &tenant, depth, shed));
        }
    }

    // Part 4: one evaluator thread per node, draining its pipeline
    // through the chunk-native driver and multicasting each item
    // Arc-shared — the evaluation happens once per chunk regardless of
    // how many queries subscribe. Band sources get the same repair
    // stage as the legacy path; interior `@share:*` sources are already
    // repaired upstream and stream through untouched.
    let share_fanout = config.fanout;
    let share_patience = config.marker_patience;
    let mut node_handles = Vec::new();
    let mut node_probes: Vec<Vec<(String, Arc<RepairProbe>)>> = Vec::new();
    let mut band_rx_iter = node_band_rx.into_iter();
    let mut share_rx_iter = node_share_rx.into_iter();
    for (i, node) in share_plan.nodes.iter().enumerate() {
        let receivers = band_rx_iter.next().unwrap_or_default();
        let share_rxs = share_rx_iter.next().unwrap_or_default();
        let mut catalog = Catalog::new();
        let mut probes: Vec<(String, Arc<RepairProbe>)> = Vec::new();
        for (name, rx) in receivers {
            let Some(schema) = schema_catalog.schema(&name).cloned() else { continue };
            let probe = Arc::new(RepairProbe::default());
            probes.push((name.clone(), Arc::clone(&probe)));
            let slot = Arc::new(Mutex::new(Some(rx)));
            let counters = repair_counters.clone();
            let copies = Arc::clone(&payload_copies);
            catalog.register(schema.clone(), move || {
                let channel = owning_channel(&schema, lock_opt(&slot).take(), &copies);
                Box::new(
                    StreamRepair::with_probe(channel, Arc::clone(&probe))
                        .with_counters(counters.clone()),
                )
            });
        }
        for (name, rx) in share_rxs {
            let Some(schema) = share_schemas.get(&name).cloned() else { continue };
            let slot = Arc::new(Mutex::new(Some(rx)));
            let copies = Arc::clone(&payload_copies);
            catalog.register(schema.clone(), move || {
                Box::new(owning_channel(&schema, lock_opt(&slot).take(), &copies))
            });
        }
        node_probes.push(probes);
        let expr = node.expr.clone();
        let tree = Arc::clone(&trees[i]);
        let pool = Arc::clone(&exec_pool);
        node_handles.push(std::thread::spawn(move || -> RunReport {
            let empty = || RunReport {
                wall: Duration::ZERO,
                elements: 0,
                points_delivered: 0,
                sectors: 0,
                per_op: Vec::new(),
                pull_latency: HistogramSnapshot::default(),
                protocol_violations: 0,
            };
            // The node's partitionable suffix runs on the shared worker
            // pool; the inner plan (sources + repair) stays on this
            // thread. With an empty suffix `run_morsels` degenerates to
            // the serial chunk driver — either way the multicast stream
            // is byte-identical to the legacy single-threaded pull.
            let split = split_parallel(&expr);
            let planner = Planner::new(&catalog);
            let mut inner: BoxedF32Stream = match planner.build(&split.inner) {
                Ok(p) => p,
                Err(e) => {
                    // Cannot happen for admitted plans (all sources are
                    // registered); close the tree so members terminate.
                    eprintln!("shared plan build failed: {e}");
                    tree.close();
                    return empty();
                }
            };
            let stages = match compile_stages(&split.stages, inner.schema()) {
                Ok(s) => Arc::new(s),
                Err(e) => {
                    eprintln!("shared plan stage compile failed: {e}");
                    tree.close();
                    return empty();
                }
            };
            let report = run_morsels(
                &mut inner,
                &stages,
                &pool,
                &PipelineObs::default(),
                DEFAULT_CHUNK_BUDGET,
                |item| tree.publish(Arc::new(item.clone()), share_fanout, share_patience),
            );
            tree.close();
            report.run
        }));
    }

    // Part 5: one lightweight subscriber thread per member query. It
    // counts what the shared evaluation delivers (the same stream the
    // legacy pipeline root would have produced) and reports repair
    // facts from its node and every upstream node it consumes.
    let closure_of = |start: usize| -> Vec<usize> {
        let mut seen = vec![false; deps.len()];
        let mut stack = vec![start];
        let mut out = Vec::new();
        while let Some(i) = stack.pop() {
            if i >= seen.len() || seen[i] {
                continue;
            }
            seen[i] = true;
            out.push(i);
            stack.extend(deps[i].iter().copied());
        }
        out
    };
    let mut shared_handles: HashMap<usize, std::thread::JoinHandle<(Result<QueryResult>, bool)>> =
        HashMap::new();
    for (i, node) in share_plan.nodes.iter().enumerate() {
        let closure = closure_of(i);
        for &qid in &node.members {
            let Some(rx) = member_rx.remove(&qid) else { continue };
            let probes: Vec<(String, Arc<RepairProbe>)> = closure
                .iter()
                .flat_map(|&j| node_probes.get(j).into_iter().flatten().cloned())
                .collect();
            let stall = config.query_stall.iter().find(|(i, _)| *i == qid).map(|(_, d)| *d);
            let metrics = config.metrics.clone();
            let depth = config.metrics.as_ref().and_then(|m| m.query_depth_gauge(qid as u32));
            shared_handles.insert(
                qid,
                std::thread::spawn(move || -> (Result<QueryResult>, bool) {
                    if let Some(m) = &metrics {
                        m.set_query_state(qid as u32, "running");
                    }
                    let started = Instant::now();
                    let never_cancelled = AtomicBool::new(false);
                    let mut elements = 0u64;
                    let mut points = 0u64;
                    let mut sectors = 0u64;
                    while let Ok(item) = rx.recv() {
                        if let Some(g) = &depth {
                            g.sub(1);
                        }
                        if let Some(d) = stall {
                            // Simulated slow client: backpressure builds
                            // in this subscriber's own channel, where the
                            // tree sheds per tenant instead of stalling
                            // the shared evaluation.
                            stall_sliced(d, None, &never_cancelled);
                        }
                        elements += item.element_count();
                        points += item.point_count() as u64;
                        if let Some(Marker::SectorEnd(_)) = item.marker() {
                            sectors += 1;
                        }
                    }
                    let report = RunReport {
                        wall: started.elapsed(),
                        elements,
                        points_delivered: points,
                        sectors,
                        per_op: Vec::new(),
                        pull_latency: HistogramSnapshot::default(),
                        protocol_violations: 0,
                    };
                    let repair: Vec<SourceRepair> = probes
                        .iter()
                        .map(|(source, p)| SourceRepair {
                            source: source.clone(),
                            stats: p.stats(),
                            sectors: p.sectors(),
                        })
                        .collect();
                    let completeness =
                        repair.iter().map(|s| s.stats.completeness()).fold(1.0_f64, f64::min);
                    if let Some(m) = &metrics {
                        m.finish_query(qid as u32, "done", points, completeness);
                    }
                    let result = QueryResult {
                        id: qid as u32,
                        frames: Vec::new(),
                        report: Some(report),
                        points,
                        repair,
                        cancelled: false,
                    };
                    (Ok(result), false)
                }),
            );
        }
    }

    enum QuerySlot {
        Running(std::thread::JoinHandle<(Result<QueryResult>, bool)>),
        Rejected(CoreError),
    }
    let mut query_slots = Vec::new();
    for (qid, (admitted, receivers)) in exprs.into_iter().zip(query_receivers).enumerate() {
        // Queries served by a shared plan already have a subscriber
        // thread; their slot just collects it.
        if let Some(h) = shared_handles.remove(&qid) {
            query_slots.push(QuerySlot::Running(h));
            continue;
        }
        let (expr, format, mut routes) = match admitted {
            Ok(parts) => parts,
            Err(e) => {
                query_slots.push(QuerySlot::Rejected(e));
                continue;
            }
        };
        let schemas: HashMap<String, StreamSchema> = receivers
            .keys()
            .chain(routes.keys())
            .filter_map(|name| schema_catalog.schema(name).map(|s| (name.clone(), s.clone())))
            .collect();
        let watchdog = config.watchdog;
        let stall = config.query_stall.iter().find(|(i, _)| *i == qid).map(|(_, d)| *d);
        let counters = repair_counters.clone();
        let watchdog_counter = config.metrics.as_ref().map(|m| m.watchdog_cancellations.clone());
        let store_metrics = store_metrics.clone();
        let metrics = config.metrics.clone();
        let payload_copies = Arc::clone(&payload_copies);
        let exec_pool = Arc::clone(&exec_pool);
        query_slots.push(QuerySlot::Running(std::thread::spawn(
            move || -> (Result<QueryResult>, bool) {
                let deadline = watchdog.map(|d| Instant::now() + d);
                let cancelled = Arc::new(AtomicBool::new(false));
                let fired = Arc::new(AtomicBool::new(false));
                let recorder = metrics.as_ref().map(|m| m.recorder(qid as u32));
                let depth = metrics.as_ref().and_then(|m| m.query_depth_gauge(qid as u32));
                if let Some(m) = &metrics {
                    m.set_query_state(qid as u32, "running");
                }
                // A per-query catalog whose factories hand out each
                // channel receiver exactly once, watchdog-aware and
                // wrapped in a repair stage.
                let mut catalog = Catalog::new();
                let mut probes: Vec<(String, Arc<RepairProbe>)> = Vec::new();
                for (name, rx) in receivers {
                    let Some(schema) = schemas.get(&name).cloned() else { continue };
                    let probe = Arc::new(RepairProbe::default());
                    probes.push((name.clone(), Arc::clone(&probe)));
                    let slot = Arc::new(Mutex::new(Some(rx)));
                    // A hybrid source backfills from this replay, then
                    // splices into the live channel (first open only).
                    let hybrid = match routes.remove(&name) {
                        Some(SourceRoute::Hybrid { replay, watermark }) => {
                            Some((replay, watermark))
                        }
                        _ => None,
                    };
                    let hybrid_slot = Arc::new(Mutex::new(hybrid));
                    let cancelled = Arc::clone(&cancelled);
                    let fired = Arc::clone(&fired);
                    let watchdog_counter = watchdog_counter.clone();
                    let counters = counters.clone();
                    let store_metrics = store_metrics.clone();
                    let recorder = recorder.clone();
                    let depth = depth.clone();
                    let src_name = name.clone();
                    let copies = Arc::clone(&payload_copies);
                    catalog.register(schema.clone(), move || {
                        // Sources are single-consumer: the first open
                        // takes the receiver, later opens get an
                        // exhausted stream.
                        let rx_opt =
                            slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
                        let mut done = false;
                        let cancelled = Arc::clone(&cancelled);
                        let fired = Arc::clone(&fired);
                        let watchdog_counter = watchdog_counter.clone();
                        let wd_rec = recorder.clone();
                        let depth = depth.clone();
                        let copies = Arc::clone(&copies);
                        let pull = move || {
                            loop {
                                if expired(deadline) {
                                    if !fired.swap(true, Ordering::SeqCst) {
                                        if let Some(c) = &watchdog_counter {
                                            c.inc();
                                        }
                                        if let Some(rec) = &wd_rec {
                                            // The cancellation itself is
                                            // a recorded event, and the
                                            // ring is frozen for
                                            // postmortem inspection.
                                            let t = now_ns();
                                            rec.record_span(
                                                "watchdog",
                                                0,
                                                t,
                                                t,
                                                0,
                                                SpanOutcome::Cancelled,
                                            );
                                            rec.freeze("watchdog");
                                        }
                                    }
                                    cancelled.store(true, Ordering::SeqCst);
                                }
                                if done || cancelled.load(Ordering::SeqCst) {
                                    return None;
                                }
                                let rx = rx_opt.as_ref()?;
                                match rx.recv_timeout(POLL) {
                                    Ok(item) => {
                                        if let Some(g) = &depth {
                                            g.sub(1);
                                        }
                                        if let Some(d) = stall {
                                            // Simulated slow client;
                                            // sliced so the watchdog
                                            // can cut through it.
                                            if !stall_sliced(d, deadline, &cancelled) {
                                                continue;
                                            }
                                        }
                                        return Some(own_payload(item, &copies));
                                    }
                                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                                        done = true;
                                        return None;
                                    }
                                }
                            }
                        };
                        let channel = ChunkChannel::new(schema.clone(), pull);
                        // With a recorder attached, the factory opens the
                        // per-stage span chain repair ← splice ← scan
                        // under the planner's source span (threaded in
                        // via `build_parent`; ids are reserved up front
                        // because the stack is built inside-out). The
                        // scan span captures the first chunk-carried
                        // pump context as its cross-trace link.
                        match lock_opt(&hybrid_slot).take() {
                            Some((replay, watermark)) => match &recorder {
                                Some(rec) => {
                                    let repair_id = rec.alloc_span();
                                    let splice_id = rec.alloc_span();
                                    let scan_guard =
                                        rec.begin(&format!("scan:{src_name}"), splice_id);
                                    let scan =
                                        SpanStream::new(channel, scan_guard).with_link_capture();
                                    let rec2 = Arc::clone(rec);
                                    let bf_name = src_name.clone();
                                    let sm = store_metrics.clone();
                                    let bf_start = now_ns();
                                    let on_switch = Some(Box::new(move |ns: u64| {
                                        if let Some(sm) = &sm {
                                            sm.backfill_ns.record(ns);
                                        }
                                        // The backfill phase is a span of
                                        // its own, closed at the splice
                                        // switch when its duration is
                                        // known.
                                        rec2.record_span(
                                            &format!("backfill:{bf_name}"),
                                            splice_id,
                                            bf_start,
                                            bf_start.saturating_add(ns),
                                            0,
                                            SpanOutcome::Ok,
                                        );
                                    })
                                        as Box<dyn FnOnce(u64) + Send>);
                                    let spliced = SpliceStream::new(
                                        replay,
                                        Box::new(scan),
                                        watermark,
                                        on_switch,
                                    );
                                    let splice_guard = rec.begin_with_id(
                                        splice_id,
                                        &format!("splice:{src_name}"),
                                        repair_id,
                                    );
                                    let spliced = SpanStream::new(spliced, splice_guard);
                                    let repaired =
                                        StreamRepair::with_probe(spliced, Arc::clone(&probe));
                                    let repair_guard = rec.begin_with_id(
                                        repair_id,
                                        &format!("repair:{src_name}"),
                                        rec.build_parent(),
                                    );
                                    Box::new(SpanStream::new(
                                        repaired.with_counters(counters.clone()),
                                        repair_guard,
                                    ))
                                }
                                None => {
                                    let on_switch = store_metrics.clone().map(|sm| {
                                        Box::new(move |ns: u64| sm.backfill_ns.record(ns))
                                            as Box<dyn FnOnce(u64) + Send>
                                    });
                                    let spliced = SpliceStream::new(
                                        replay,
                                        Box::new(channel),
                                        watermark,
                                        on_switch,
                                    );
                                    let repaired =
                                        StreamRepair::with_probe(spliced, Arc::clone(&probe));
                                    Box::new(repaired.with_counters(counters.clone()))
                                }
                            },
                            None => match &recorder {
                                Some(rec) => {
                                    let repair_id = rec.alloc_span();
                                    let scan_guard =
                                        rec.begin(&format!("scan:{src_name}"), repair_id);
                                    let scan =
                                        SpanStream::new(channel, scan_guard).with_link_capture();
                                    let repaired =
                                        StreamRepair::with_probe(scan, Arc::clone(&probe));
                                    let repair_guard = rec.begin_with_id(
                                        repair_id,
                                        &format!("repair:{src_name}"),
                                        rec.build_parent(),
                                    );
                                    Box::new(SpanStream::new(
                                        repaired.with_counters(counters.clone()),
                                        repair_guard,
                                    ))
                                }
                                None => {
                                    let repaired =
                                        StreamRepair::with_probe(channel, Arc::clone(&probe));
                                    Box::new(repaired.with_counters(counters.clone()))
                                }
                            },
                        }
                    });
                }
                // Archive-only sources: the replay IS the source — no
                // live subscription exists for them at all.
                for (name, route) in routes {
                    let SourceRoute::ArchiveOnly(replay) = route else { continue };
                    let Some(schema) = schemas.get(&name).cloned() else { continue };
                    let probe = Arc::new(RepairProbe::default());
                    probes.push((name.clone(), Arc::clone(&probe)));
                    let slot = Arc::new(Mutex::new(Some(replay)));
                    let counters = counters.clone();
                    let recorder = recorder.clone();
                    let src_name = name.clone();
                    catalog.register(schema.clone(), move || {
                        match lock_opt(&slot).take() {
                            Some(r) => match &recorder {
                                Some(rec) => {
                                    let repair_id = rec.alloc_span();
                                    let replay_guard =
                                        rec.begin(&format!("replay:{src_name}"), repair_id);
                                    let r = SpanStream::new(r, replay_guard);
                                    let repaired = StreamRepair::with_probe(r, Arc::clone(&probe));
                                    let repair_guard = rec.begin_with_id(
                                        repair_id,
                                        &format!("repair:{src_name}"),
                                        rec.build_parent(),
                                    );
                                    Box::new(SpanStream::new(
                                        repaired.with_counters(counters.clone()),
                                        repair_guard,
                                    ))
                                }
                                None => {
                                    let repaired = StreamRepair::with_probe(r, Arc::clone(&probe));
                                    Box::new(repaired.with_counters(counters.clone()))
                                }
                            },
                            // Later opens of a single-consumer source
                            // get an exhausted stream.
                            None => Box::new(ChannelLike::new(schema.clone(), || None)),
                        }
                    });
                }
                let run = || -> Result<QueryResult> {
                    let planner = Planner::new(&catalog);
                    // Counting queries whose plan ends in a
                    // partitionable operator suffix run it on the
                    // runtime's worker pool, morsel by morsel, merged
                    // back in lattice order (byte-identical to the
                    // serial pipeline). Plans with no such suffix —
                    // and image deliveries, whose PNG sink is
                    // inherently ordered — keep the legacy path.
                    let split = split_parallel(&expr);
                    let counting = matches!(format, OutputFormat::Stats | OutputFormat::Json);
                    let mut result = if counting && !split.stages.is_empty() {
                        let report = match (&metrics, &recorder) {
                            (Some(m), Some(rec)) => {
                                // Traced morsel run: the inner chain is
                                // span-traced exactly like a serial
                                // plan; the deliver span and the
                                // frame-hook freshness accounting the
                                // legacy root `SpanStream` provided
                                // are replicated around the merged
                                // (serial-order) output.
                                let deliver_id = rec.alloc_span();
                                let obs = PipelineObs::for_query(qid as u32)
                                    .with_trace(Arc::clone(&m.trace))
                                    .with_recorder(Arc::clone(rec))
                                    .under(deliver_id);
                                let mut inner = planner.build_traced(&split.inner, &obs)?;
                                let stages =
                                    Arc::new(compile_stages(&split.stages, inner.schema())?);
                                let mut deliver = rec.begin_with_id(deliver_id, "deliver", 0);
                                let m2 = Arc::clone(m);
                                let mr = run_morsels(
                                    &mut inner,
                                    &stages,
                                    &exec_pool,
                                    &obs,
                                    DEFAULT_CHUNK_BUDGET,
                                    |item| {
                                        if let Some(Marker::FrameStart(fi)) = item.marker() {
                                            m2.note_frame(qid as u32, fi);
                                        }
                                    },
                                );
                                deliver.add_points(mr.run.points_delivered);
                                deliver.finish(SpanOutcome::Ok);
                                mr.run
                            }
                            _ => {
                                let mut inner = planner.build(&split.inner)?;
                                let stages =
                                    Arc::new(compile_stages(&split.stages, inner.schema())?);
                                run_morsels(
                                    &mut inner,
                                    &stages,
                                    &exec_pool,
                                    &PipelineObs::default(),
                                    DEFAULT_CHUNK_BUDGET,
                                    |_| {},
                                )
                                .run
                            }
                        };
                        let points = report.points_delivered;
                        // Debug-build runtime validator: any marker
                        // bracketing or chunk-edge violation the merge
                        // stage observed becomes a counted alarm
                        // (always 0 in release builds).
                        if report.protocol_violations > 0 {
                            if let Some(m) = &metrics {
                                m.protocol_violations.add(report.protocol_violations);
                            }
                        }
                        QueryResult {
                            id: qid as u32,
                            frames: Vec::new(),
                            report: Some(report),
                            points,
                            repair: Vec::new(),
                            cancelled: false,
                        }
                    } else {
                        let pipeline: BoxedF32Stream = match (&metrics, &recorder) {
                            (Some(m), Some(rec)) => {
                                // Traced build: one span per operator,
                                // chained under a root delivery span whose
                                // frame hook feeds watermark and e2e-lag
                                // accounting at the moment of delivery.
                                let deliver_id = rec.alloc_span();
                                let obs = PipelineObs::for_query(qid as u32)
                                    .with_trace(Arc::clone(&m.trace))
                                    .with_recorder(Arc::clone(rec))
                                    .under(deliver_id);
                                let built = planner.build_traced(&expr, &obs)?;
                                let deliver = rec.begin_with_id(deliver_id, "deliver", 0);
                                let m2 = Arc::clone(m);
                                Box::new(
                                    SpanStream::new(built, deliver)
                                        .with_frame_hook(move |fi| m2.note_frame(qid as u32, fi)),
                                )
                            }
                            _ => planner.build(&expr)?,
                        };
                        match format {
                            OutputFormat::Stats | OutputFormat::Json => {
                                let mut pipeline = pipeline;
                                let report = geostreams_core::exec::run_to_end(&mut pipeline);
                                let points = report.points_delivered;
                                // Debug-build runtime validator: any marker
                                // bracketing or chunk-edge violation the
                                // driver observed becomes a counted alarm
                                // (always 0 in release builds).
                                if report.protocol_violations > 0 {
                                    if let Some(m) = &metrics {
                                        m.protocol_violations.add(report.protocol_violations);
                                    }
                                }
                                QueryResult {
                                    id: qid as u32,
                                    frames: Vec::new(),
                                    report: Some(report),
                                    points,
                                    repair: Vec::new(),
                                    cancelled: false,
                                }
                            }
                            _ => {
                                let mut sink = PngSink::new(pipeline, None, PngOptions::default());
                                let mut frames = Vec::new();
                                while let Some(f) = sink.next_frame() {
                                    frames.push(f);
                                }
                                let points = frames.len() as u64;
                                QueryResult {
                                    id: qid as u32,
                                    frames,
                                    report: None,
                                    points,
                                    repair: Vec::new(),
                                    cancelled: false,
                                }
                            }
                        }
                    };
                    result.repair = probes
                        .iter()
                        .map(|(source, p)| SourceRepair {
                            source: source.clone(),
                            stats: p.stats(),
                            sectors: p.sectors(),
                        })
                        .collect();
                    result.cancelled = fired.load(Ordering::SeqCst);
                    Ok(result)
                };
                let result = run();
                let was_cancelled = fired.load(Ordering::SeqCst);
                if let Some(m) = &metrics {
                    let state = if was_cancelled {
                        "cancelled"
                    } else if result.is_err() {
                        "failed"
                    } else {
                        "done"
                    };
                    let (points, completeness) = match &result {
                        Ok(r) => (
                            r.points,
                            r.repair.iter().map(|s| s.stats.completeness()).fold(1.0_f64, f64::min),
                        ),
                        Err(_) => (0, 0.0),
                    };
                    m.finish_query(qid as u32, state, points, completeness);
                }
                (result, was_cancelled)
            },
        )));
    }

    let mut cancellations = 0u64;
    let results: Vec<Result<QueryResult>> = query_slots
        .into_iter()
        .map(|slot| match slot {
            QuerySlot::Rejected(e) => Err(e),
            QuerySlot::Running(h) => match h.join() {
                Ok((res, fired)) => {
                    if fired {
                        cancellations += 1;
                    }
                    res
                }
                Err(_) => Err(CoreError::Unsupported("query thread panicked".into())),
            },
        })
        .collect();
    let mut stats = IngestStats::default();
    for h in ingest_handles {
        if let Ok(report) = h.join() {
            stats.elements_per_band.push((report.band_id, report.elements));
            if report.restarts > 0 {
                stats.restarts_per_band.push((report.band_id, report.restarts));
                stats.restarts += u64::from(report.restarts);
            }
            if let Some(f) = report.faults {
                stats.faults_per_band.push((report.band_id, f));
            }
        }
    }
    stats.shed_elements = band_tree_list.iter().map(|t| t.shed_total()).sum();
    // Shared-plan accounting: evaluator reports (protocol checking ran
    // once per distinct plan), multicast volume and per-tenant shed
    // from the trees, and the run-wide payload-copy count.
    for h in node_handles {
        if let Ok(report) = h.join() {
            if report.protocol_violations > 0 {
                if let Some(m) = &config.metrics {
                    m.protocol_violations.add(report.protocol_violations);
                }
            }
        }
    }
    stats.shared_plans = share_plan.nodes.len() as u64;
    for tree in &trees {
        stats.shared_chunks_multicast += tree.chunks_multicast();
        for (tenant, n) in tree.shed_per_tenant() {
            match stats.shed_per_tenant.iter_mut().find(|(t, _)| *t == tenant) {
                Some(e) => e.1 += n,
                None => stats.shed_per_tenant.push((tenant, n)),
            }
        }
    }
    stats.shed_per_tenant.sort();
    stats.payload_copies = payload_copies.load(Ordering::Relaxed);
    if let Some(m) = &config.metrics {
        m.share_distinct_plans.set(stats.shared_plans);
        if stats.payload_copies > 0 {
            m.share_payload_copies.add(stats.payload_copies);
        }
        m.record_exec_workers(&exec_pool.stats());
    }
    stats.watchdog_cancellations = cancellations;
    stats.elements_per_band.sort_unstable();
    stats.restarts_per_band.sort_unstable();
    stats.faults_per_band.sort_unstable_by_key(|(id, _)| *id);
    Ok((results, stats))
}

/// Poison-tolerant lock (metrics/state stay usable after a panic).
fn lock_opt<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Copy-on-write receive: owns the payload outright when this was the
/// last reference (the fan-out moves its own into the last accepting
/// subscriber), deep-copies it — counted in `copies` — otherwise.
fn own_payload(item: SharedItem, copies: &AtomicU64) -> ChunkOrMarker<f32> {
    Arc::try_unwrap(item).unwrap_or_else(|a| {
        copies.fetch_add(1, Ordering::Relaxed);
        (*a).clone()
    })
}

/// A chunk source over a fan-out receiver, taking each payload
/// copy-on-write. A source opened without its receiver (a later open
/// of a single-consumer source) is exhausted.
fn owning_channel(
    schema: &StreamSchema,
    rx: Option<Receiver<SharedItem>>,
    copies: &Arc<AtomicU64>,
) -> ChunkChannel<f32> {
    let copies = Arc::clone(copies);
    let mut rx = rx;
    ChunkChannel::new(schema.clone(), move || match rx.as_ref()?.recv() {
        Ok(item) => Some(own_payload(item, &copies)),
        Err(_) => {
            rx = None;
            None
        }
    })
}

/// True when a deadline exists and has passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Sleeps `total` in watchdog-sized slices; returns `false` when the
/// deadline passed or the query was cancelled mid-stall.
fn stall_sliced(total: Duration, deadline: Option<Instant>, cancelled: &AtomicBool) -> bool {
    let until = Instant::now() + total;
    while Instant::now() < until {
        if expired(deadline) || cancelled.load(Ordering::SeqCst) {
            return false;
        }
        std::thread::sleep(POLL.min(until.saturating_duration_since(Instant::now())));
    }
    true
}

/// One ingest attempt: drains the stream into every live subscriber,
/// skipping sectors before `start_sector` (restart resume). When an
/// archive is attached, every delivered element (post-chaos, i.e. what
/// the downlink actually produced) is also persisted.
#[allow(clippy::too_many_arguments)]
fn pump(
    mut stream: BoxedF32Stream,
    tree: &SubscriptionTree,
    progress: &PumpProgress,
    start_sector: u64,
    fanout: FanoutPolicy,
    marker_patience: Duration,
    points_counter: Option<Counter>,
    mut archive: Option<Arc<Archive>>,
    band_id: u16,
    mut span: Option<SpanGuard>,
) {
    // Causal identity stamped onto every chunk this pump fans out, so
    // subscribing queries can link their scan span back to this pump.
    let ctx: Option<TraceContext> = span.as_ref().map(SpanGuard::ctx);
    if let Some(a) = &archive {
        if let Err(e) = a.bind_band(stream.schema()) {
            eprintln!("archive: bind band {band_id} failed, persistence disabled: {e}");
            archive = None;
        }
    }
    let mut skipping = start_sector > 0;
    while let Some(item) = stream.next_chunk(DEFAULT_CHUNK_BUDGET) {
        let item = if skipping {
            // Restart resume: drop everything before `start_sector`. A
            // point run inside a skipped sector is discarded whole; only
            // a `SectorStart` at or past the resume point ends the skip.
            match item {
                ChunkOrMarker::Marker(Marker::SectorStart(si)) if si.sector_id >= start_sector => {
                    skipping = false;
                    ChunkOrMarker::Marker(Marker::SectorStart(si))
                }
                ChunkOrMarker::Marker(_) => continue,
                ChunkOrMarker::Chunk(mut c) => match c.end.take() {
                    Some(Marker::SectorStart(si)) if si.sector_id >= start_sector => {
                        skipping = false;
                        c.recycle();
                        ChunkOrMarker::Marker(Marker::SectorStart(si))
                    }
                    _ => {
                        c.recycle();
                        continue;
                    }
                },
            }
        } else {
            item
        };
        let mut item = item;
        if let ChunkOrMarker::Chunk(c) = &mut item {
            c.ctx = ctx;
        }
        if let Some(Marker::SectorStart(si)) = item.marker() {
            progress.last_sector.store(si.sector_id + 1, Ordering::Relaxed);
        }
        progress.elements.fetch_add(item.element_count(), Ordering::Relaxed);
        let n_points = item.point_count() as u64;
        if n_points > 0 {
            if let Some(c) = &points_counter {
                c.add(n_points);
            }
            if let Some(s) = &mut span {
                s.add_points(n_points);
            }
        }
        if let Some(a) = &archive {
            if let Err(e) = a.ingest_chunk(band_id, &item) {
                eprintln!("archive: ingest on band {band_id} failed, persistence disabled: {e}");
                archive = None;
            }
        }
        // One Arc wrap per item: subscribers share the payload and the
        // consumer side takes ownership copy-on-write.
        tree.publish(Arc::new(item), fanout, marker_patience);
    }
    if let Some(a) = &archive {
        let _ = a.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_satsim::goes_like;

    fn req(q: &str, format: OutputFormat) -> ClientRequest {
        ClientRequest { query: q.to_string(), format, sectors: 0 }
    }

    #[test]
    fn shared_ingest_runs_multiple_queries() {
        let scanner = goes_like(32, 16, 5);
        let requests = vec![
            req("restrict_value(goes-sim.b4-ir, 0, 1)", OutputFormat::Stats),
            req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
            req("goes-sim.b3-wv", OutputFormat::PngGray),
        ];
        let (results, stats) = run_continuous(&scanner, 2, &requests).unwrap();
        assert_eq!(results.len(), 3);
        let r0 = results[0].as_ref().unwrap();
        assert_eq!(r0.report.as_ref().unwrap().points_delivered, 2 * 8 * 4);
        let r2 = results[2].as_ref().unwrap();
        assert_eq!(r2.frames.len(), 2);
        // Band 4 was ingested once despite two subscribers.
        let b4 = stats.elements_per_band.iter().find(|(id, _)| *id == 4).unwrap();
        assert!(b4.1 > 0);
        assert_eq!(stats.elements_per_band.len(), 2, "only referenced bands ingest");
        // Clean feed: no recovery actions.
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.shed_elements, 0);
        assert_eq!(stats.watchdog_cancellations, 0);
    }

    #[test]
    fn cross_band_query_over_shared_ingest() {
        let scanner = goes_like(32, 16, 5);
        let requests = vec![req(
            "ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))",
            OutputFormat::PngNdvi,
        )];
        let (results, _) = run_continuous(&scanner, 1, &requests).unwrap();
        let r = results[0].as_ref().unwrap();
        assert_eq!(r.frames.len(), 1);
        assert!(geostreams_raster::png::decode(&r.frames[0].png).is_ok());
    }

    #[test]
    fn unknown_source_fails_before_spawning() {
        let scanner = goes_like(8, 4, 1);
        let err = run_continuous(&scanner, 1, &[req("nosuch.band", OutputFormat::Stats)]);
        assert!(matches!(err, Err(CoreError::UnknownSource(_))));
    }

    #[test]
    fn query_ids_follow_request_order() {
        let scanner = goes_like(16, 8, 1);
        let requests = vec![
            req("goes-sim.b4-ir", OutputFormat::Stats),
            req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
            req("goes-sim.b5-ir", OutputFormat::Stats),
        ];
        let (results, _) = run_continuous(&scanner, 1, &requests).unwrap();
        let ids: Vec<u32> = results.iter().map(|r| r.as_ref().unwrap().id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn exec_workers_leave_counting_results_identical() {
        // The morsel pool must be invisible in results: same requests,
        // worker counts {0 (inline), 1, 4}, identical per-query points
        // and sector counts. The stacked plan exercises a two-stage
        // suffix (scale → restrict_value); the bare source exercises
        // the empty-suffix delegation.
        let requests = vec![
            req("restrict_value(scale(goes-sim.b4-ir, 2, 0), 0, 500)", OutputFormat::Stats),
            req("goes-sim.b3-wv", OutputFormat::Stats),
        ];
        let mut seen: Vec<Vec<(u64, u64)>> = Vec::new();
        for workers in [0usize, 1, 4] {
            let scanner = goes_like(32, 16, 5);
            let metrics = Arc::new(ServerMetrics::new());
            let config = RuntimeConfig {
                exec_workers: workers,
                metrics: Some(Arc::clone(&metrics)),
                ..RuntimeConfig::default()
            };
            let (results, _) = run_supervised(&scanner, 2, &requests, &config).unwrap();
            let facts: Vec<(u64, u64)> = results
                .iter()
                .map(|r| {
                    let r = r.as_ref().unwrap();
                    (r.points, r.report.as_ref().unwrap().sectors)
                })
                .collect();
            seen.push(facts);
            if workers > 0 {
                // The pool must have executed the stacked query's
                // morsels (worker counters are published as gauges).
                let rendered = metrics.render_prometheus();
                assert!(
                    rendered.contains("geostreams_exec_worker_jobs"),
                    "pool counters missing from /metrics"
                );
            }
        }
        assert_eq!(seen[0], seen[1], "inline vs 1 worker diverged");
        assert_eq!(seen[1], seen[2], "1 vs 4 workers diverged");
    }

    #[test]
    fn injected_death_triggers_supervised_restart() {
        let scanner = goes_like(32, 16, 1);
        let metrics = Arc::new(ServerMetrics::new());
        let config = RuntimeConfig {
            // Kill the feed partway through sector 1 of 3.
            fault_plan: Some(FaultPlan::seeded(7).with_death_after(60)),
            backoff_base: Duration::from_millis(1),
            metrics: Some(Arc::clone(&metrics)),
            ..RuntimeConfig::default()
        };
        let (results, stats) =
            run_supervised(&scanner, 3, &[req("goes-sim.b4-ir", OutputFormat::Stats)], &config)
                .unwrap();
        let r = results[0].as_ref().unwrap();
        assert!(r.report.is_some());
        assert_eq!(stats.restarts, 1, "{stats:?}");
        assert_eq!(metrics.ingest_restarts.get(), 1);
        assert!(stats.faults_per_band.iter().any(|(_, f)| f.died));
        // The feed resumed: later sectors were delivered after the
        // crash (the query still saw data past the cut).
        assert!(r.report.as_ref().unwrap().points_delivered > 0);
    }

    #[test]
    fn watchdog_cancels_hung_query_without_stalling_sibling() {
        let scanner = goes_like(32, 16, 5);
        let metrics = Arc::new(ServerMetrics::new());
        let config = RuntimeConfig {
            watchdog: Some(Duration::from_millis(300)),
            // Query 1 "processes" each element for 10s: hopelessly
            // wedged, must be cancelled, not waited for.
            query_stall: vec![(1, Duration::from_secs(10))],
            marker_patience: Duration::from_millis(50),
            metrics: Some(Arc::clone(&metrics)),
            ..RuntimeConfig::default()
        };
        let requests = vec![
            req("goes-sim.b4-ir", OutputFormat::Stats),
            req("scale(goes-sim.b4-ir, 2, 0)", OutputFormat::Stats),
        ];
        let started = Instant::now();
        let (results, stats) = run_supervised(&scanner, 2, &requests, &config).unwrap();
        // The healthy sibling on the same band is complete and correct.
        let r0 = results[0].as_ref().unwrap();
        assert!(!r0.cancelled);
        assert_eq!(r0.report.as_ref().unwrap().points_delivered, 2 * 8 * 4);
        // The wedged query was cancelled, and nobody waited 10s.
        let r1 = results[1].as_ref().unwrap();
        assert!(r1.cancelled);
        assert_eq!(stats.watchdog_cancellations, 1);
        assert_eq!(metrics.watchdog_cancellations.get(), 1);
        assert!(started.elapsed() < Duration::from_secs(8), "watchdog failed to cut through");
    }

    #[test]
    fn chaotic_feed_yields_partial_frames_with_completeness() {
        let scanner = goes_like(32, 16, 5);
        let metrics = Arc::new(ServerMetrics::new());
        let config = RuntimeConfig {
            fault_plan: Some(
                FaultPlan::seeded(42)
                    .with_dropped_rows(0.1)
                    .with_dropped_points(0.05)
                    .with_dropped_end_markers(0.1)
                    .with_duplicates(0.05),
            ),
            metrics: Some(Arc::clone(&metrics)),
            ..RuntimeConfig::default()
        };
        let (results, _) =
            run_supervised(&scanner, 4, &[req("goes-sim.b4-ir", OutputFormat::Stats)], &config)
                .unwrap();
        let r = results[0].as_ref().unwrap();
        let repair = &r.repair[0];
        assert!(repair.stats.completeness() < 1.0);
        assert!(repair.stats.completeness() > 0.5);
        assert!(!repair.sectors.is_empty());
        for s in &repair.sectors {
            assert!(s.ratio() <= 1.0);
        }
        assert!(metrics.gaps_detected.get() > 0);
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let run = || {
            let scanner = goes_like(32, 16, 5);
            let config = RuntimeConfig {
                fault_plan: Some(
                    FaultPlan::seeded(9)
                        .with_dropped_rows(0.1)
                        .with_dropped_points(0.05)
                        .with_duplicates(0.05)
                        .with_reordering(0.05),
                ),
                // Big enough that timing can never shed.
                channel_cap: 1 << 16,
                ..RuntimeConfig::default()
            };
            let requests = vec![
                req("goes-sim.b4-ir", OutputFormat::Stats),
                req("goes-sim.b1-vis", OutputFormat::PngGray),
            ];
            run_supervised(&scanner, 3, &requests, &config).unwrap()
        };
        let (a, _) = run();
        let (b, _) = run();
        let a0 = a[0].as_ref().unwrap();
        let b0 = b[0].as_ref().unwrap();
        assert_eq!(
            a0.report.as_ref().unwrap().points_delivered,
            b0.report.as_ref().unwrap().points_delivered
        );
        let a1 = a[1].as_ref().unwrap();
        let b1 = b[1].as_ref().unwrap();
        assert_eq!(a1.frames.len(), b1.frames.len());
        for (fa, fb) in a1.frames.iter().zip(&b1.frames) {
            assert_eq!(fa.png, fb.png, "frame bytes must be identical across runs");
        }
        assert_eq!(
            a0.repair.first().map(|r| r.stats.clone()),
            b0.repair.first().map(|r| r.stats.clone())
        );
    }
}
