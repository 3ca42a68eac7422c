//! Layer probes. Each probe replays pre-rendered inputs of the workload
//! (one sector per band, synthesized once) through one layer's public
//! function and times only that layer: the cost of draining the probe's
//! own in-memory source is measured separately and subtracted.

use crate::workloads::{self, NamedQuery, Workload};
use geostreams_core::exec::{compile_stages, run_chunked, run_morsels, split_parallel, WorkerPool};
use geostreams_core::model::{
    BoxedF32Stream, ChunkOrMarker, Element, GeoStream, StreamRepair, StreamSchema, VecStream,
    DEFAULT_CHUNK_BUDGET,
};
use geostreams_core::obs::PipelineObs;
use geostreams_core::ops::PngSink;
use geostreams_core::query::{
    analyze_with, canonical_key, optimize, parse_query, AnalyzeOptions, Catalog, Planner,
};
use geostreams_dsms::{FanoutPolicy, RuntimeConfig, SubscriptionTree};
use geostreams_raster::png::PngOptions;
use geostreams_satsim::ChaosStream;
use geostreams_store::{Archive, ArchiveConfig};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions per probe; the median is kept.
const REPS: usize = 5;

/// Subscribers of the multicast probe (the `swarm` fan-out width).
const MULTICAST_SUBS: usize = 256;

/// One sector of one band, pre-rendered.
#[derive(Clone)]
struct Rendered {
    schema: StreamSchema,
    elements: Arc<Vec<Element<f32>>>,
    points: u64,
}

impl Rendered {
    fn stream(&self) -> VecStream<f32> {
        VecStream::new(self.schema.clone(), (*self.elements).clone())
    }
}

fn render<S: GeoStream<V = f32>>(mut s: S) -> Rendered {
    let schema = s.schema().clone();
    let elements = geostreams_core::model::drain_chunked(&mut s, DEFAULT_CHUNK_BUDGET);
    let points = elements.iter().filter(|e| matches!(e, Element::Point(_))).count() as u64;
    Rendered { schema, elements: Arc::new(elements), points }
}

/// Drains `s` through the chunked interface; returns (wall, points).
fn drain<S: GeoStream + ?Sized>(s: &mut S) -> (Duration, u64) {
    let t0 = Instant::now();
    let mut points = 0u64;
    while let Some(item) = s.next_chunk(DEFAULT_CHUNK_BUDGET) {
        points += item.point_count() as u64;
        std::hint::black_box(&item);
        item.recycle();
    }
    (t0.elapsed(), points)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

/// Median over `REPS` runs of `f`, in nanoseconds.
fn median_ns(mut f: impl FnMut() -> Duration) -> f64 {
    median((0..REPS).map(|_| f().as_nanos() as f64).collect())
}

/// What the probes measured, per unit of work.
#[derive(Debug, Default)]
pub struct Probes {
    pub synth_ns_per_pt: f64,
    pub chaos_ns_per_pt: f64,
    pub repair_ns_per_pt: f64,
    pub admit_us_per_query: f64,
    pub plan_cache_hit_ratio: f64,
    /// Per pipeline name: (ns per input point, peak buffered bytes).
    pub ops: BTreeMap<&'static str, (f64, u64)>,
    pub pool_over_serial: f64,
    pub multicast_ns_per_sub_item: f64,
    pub png_ms_per_frame: f64,
    pub png_bytes: f64,
    pub ingest_ns_per_pt: f64,
    pub replay_hot_ns_per_pt: f64,
    pub replay_cold_ns_per_pt: f64,
}

/// A catalog serving each band from its pre-rendered sector.
fn catalog(rendered: &[Rendered]) -> Catalog {
    let mut c = Catalog::new();
    for r in rendered {
        let r2 = r.clone();
        c.register(r.schema.clone(), move || Box::new(r2.stream()) as BoxedF32Stream);
    }
    c
}

/// Runs every probe on `w`'s inputs. `scratch` holds the probe archives.
pub fn run(w: &Workload, scratch: &Path) -> Result<Probes, String> {
    let scanner = &w.scanner;
    let all: Vec<Rendered> =
        (0..scanner.instrument.bands.len()).map(|b| render(scanner.band_stream(b, 1))).collect();
    let ingested: Vec<&Rendered> = workloads::bands(w.kind).iter().map(|&b| &all[b]).collect();
    let ingested_pts: u64 = ingested.iter().map(|r| r.points).sum();

    // satsim: synthesis of the workload's bands, one sector each.
    let synth_ns = median_ns(|| {
        let t0 = Instant::now();
        for &b in workloads::bands(w.kind) {
            drain(&mut scanner.band_stream(b, 1));
        }
        t0.elapsed()
    });
    let mut p = Probes { synth_ns_per_pt: synth_ns / ingested_pts as f64, ..Probes::default() };

    // satsim: the live fault plan over the same inputs, and the repair
    // stage over the damaged stream it produces.
    let plan = workloads::live_fault_plan(w.seed);
    let source_ns = median_ns(|| ingested.iter().map(|r| drain(&mut r.stream()).0).sum());
    let chaos_ns = median_ns(|| {
        ingested
            .iter()
            .enumerate()
            .map(|(i, r)| drain(&mut ChaosStream::new(r.stream(), plan.clone(), i as u64)).0)
            .sum()
    });
    p.chaos_ns_per_pt = (chaos_ns - source_ns).max(0.0) / ingested_pts as f64;
    let damaged: Vec<Rendered> = ingested
        .iter()
        .enumerate()
        .map(|(i, r)| render(ChaosStream::new(r.stream(), plan.clone(), i as u64)))
        .collect();
    let damaged_pts: u64 = damaged.iter().map(|r| r.points).sum();
    let damaged_ns = median_ns(|| damaged.iter().map(|r| drain(&mut r.stream()).0).sum());
    let repair_ns =
        median_ns(|| damaged.iter().map(|r| drain(&mut StreamRepair::new(r.stream())).0).sum());
    p.repair_ns_per_pt = (repair_ns - damaged_ns).max(0.0) / damaged_pts.max(1) as f64;

    // core.query: admission of the round's requests, and how many a
    // canonical-key plan cache would have served.
    let cat = catalog(&all);
    let queries = w.queries();
    let opts = AnalyzeOptions {
        now: w.archive.as_ref().map(|_| w.next_sector() as i64),
        replay: w.archive.as_deref().map(|a| a as &dyn geostreams_core::query::ReplayProvider),
    };
    let mut keys = HashSet::new();
    let admit_ns = median_ns(|| {
        keys.clear();
        let t0 = Instant::now();
        for q in &queries {
            if let Ok(expr) = parse_query(&q.text) {
                keys.insert(canonical_key(&expr));
                let expr = optimize(&expr, &cat);
                std::hint::black_box(analyze_with(&expr, &cat, &opts));
            }
        }
        t0.elapsed()
    });
    p.admit_us_per_query = admit_ns / 1e3 / queries.len() as f64;
    p.plan_cache_hit_ratio = 1.0 - keys.len() as f64 / queries.len() as f64;

    // core.ops: every distinct pipeline over the pre-rendered sector.
    for pq in workloads::op_pipelines() {
        p.ops.insert(pq.name, ops_probe(&cat, &pq)?);
    }

    // core.exec: the morsel driver at the default worker count against
    // the serial chunk driver, on the focal stack.
    let focal3 = workloads::op_pipelines()
        .into_iter()
        .find(|q| q.name == "focal3")
        .ok_or("focal3 pipeline missing")?;
    let expr = parse_query(&focal3.text).map_err(|e| e.to_string())?;
    let planner = Planner::new(&cat);
    let serial_ns = median_ns(|| {
        let mut s = planner.build(&expr).expect("focal3 builds");
        let t0 = Instant::now();
        run_chunked(&mut s, &PipelineObs::default(), DEFAULT_CHUNK_BUDGET, |_| {});
        t0.elapsed()
    });
    let pool = Arc::new(WorkerPool::new(RuntimeConfig::default().exec_workers));
    let split = split_parallel(&expr);
    let pooled_ns = median_ns(|| {
        let mut inner = planner.build(&split.inner).expect("focal3 inner builds");
        let stages = Arc::new(compile_stages(&split.stages, inner.schema()).expect("stages"));
        let t0 = Instant::now();
        run_morsels(
            &mut inner,
            &stages,
            &pool,
            &PipelineObs::default(),
            DEFAULT_CHUNK_BUDGET,
            |_| {},
        );
        t0.elapsed()
    });
    p.pool_over_serial = pooled_ns / serial_ns;

    // dsms.share: multicast of the b4 sector to MULTICAST_SUBS
    // subscribers, each drained inline after every item.
    let b4 = &all[3];
    let items: Vec<Arc<ChunkOrMarker<f32>>> = {
        let mut s = b4.stream();
        std::iter::from_fn(|| s.next_chunk(DEFAULT_CHUNK_BUDGET)).map(Arc::new).collect()
    };
    let patience = RuntimeConfig::default().marker_patience;
    let mc_ns = median_ns(|| {
        let tree = SubscriptionTree::new();
        let rxs: Vec<_> =
            (0..MULTICAST_SUBS).map(|_| tree.subscribe_query(4, "default", None, None)).collect();
        let t0 = Instant::now();
        for item in &items {
            tree.multicast(item, FanoutPolicy::Shed, patience);
            for rx in &rxs {
                while let Ok(x) = rx.try_recv() {
                    std::hint::black_box(&x);
                }
            }
        }
        t0.elapsed()
    });
    p.multicast_ns_per_sub_item = mc_ns / (items.len() * MULTICAST_SUBS) as f64;

    // core.ops.delivery: PNG encoding of the b4 sector.
    let mut frames = 0u64;
    let mut bytes = 0u64;
    let png_ns = median_ns(|| {
        let mut sink = PngSink::new(b4.stream(), None, PngOptions::default());
        let t0 = Instant::now();
        frames = 0;
        bytes = 0;
        while let Some(f) = sink.next_frame() {
            frames += 1;
            bytes += f.png.len() as u64;
        }
        t0.elapsed()
    });
    let b4_ns = median_ns(|| drain(&mut b4.stream()).0);
    p.png_ms_per_frame = (png_ns - b4_ns).max(0.0) / 1e6 / frames.max(1) as f64;
    p.png_bytes = bytes as f64 / frames.max(1) as f64;

    // store write: the workload's bands into a fresh archive, flushed.
    let mut k = 0;
    let ingest_ns = median_ns(|| {
        k += 1;
        let dir = scratch.join(format!("ingest-{k}"));
        let archive = Archive::create(ArchiveConfig::new(&dir)).expect("probe archive");
        let mut elapsed = Duration::ZERO;
        for r in &ingested {
            archive.bind_band(&r.schema).expect("bind band");
            let mut s = r.stream();
            let band = r.schema.band;
            let mut batch = Vec::new();
            while let Some(item) = s.next_chunk(DEFAULT_CHUNK_BUDGET) {
                batch.push(item);
            }
            let t0 = Instant::now();
            for item in &batch {
                archive.ingest_chunk(band, item).expect("ingest");
            }
            archive.flush().expect("flush");
            elapsed += t0.elapsed();
        }
        drop(archive);
        let _ = std::fs::remove_dir_all(&dir);
        elapsed
    });
    p.ingest_ns_per_pt = ingest_ns / ingested_pts as f64;

    // store read: a window that fits the decoded-tile cache (b4) and one
    // that exceeds it (b1), each replayed alone, second pass timed, with
    // tile decode on a pool of the default size as the runtime does.
    let sizes = w.sizes;
    let dir = scratch.join("replay");
    let archive = Archive::create(ArchiveConfig::new(&dir)).map_err(|e| e.to_string())?;
    workloads::seed_archive(&archive, scanner, 0, sizes.cold_sectors)?;
    workloads::seed_archive(&archive, scanner, 3, sizes.hot_sectors)?;
    p.replay_hot_ns_per_pt = replay_probe(&archive, &pool, 4, sizes.hot_sectors)?;
    p.replay_cold_ns_per_pt = replay_probe(&archive, &pool, 1, sizes.cold_sectors)?;
    drop(archive);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(p)
}

/// Operator time of one pipeline per input point (source drain
/// subtracted), and its peak buffered bytes.
fn ops_probe(cat: &Catalog, q: &NamedQuery) -> Result<(f64, u64), String> {
    let expr = parse_query(&q.text).map_err(|e| e.to_string())?;
    let planner = Planner::new(cat);
    let mut peak = 0;
    let total_ns = median_ns(|| {
        let mut s = planner.build(&expr).expect("pipeline builds");
        let t0 = Instant::now();
        let report = run_chunked(&mut s, &PipelineObs::default(), DEFAULT_CHUNK_BUDGET, |_| {});
        let wall = t0.elapsed();
        peak = report.peak_buffered_bytes();
        wall
    });
    let sources = expr.source_names();
    let mut input_pts = 0;
    let source_ns = median_ns(|| {
        input_pts = 0;
        let mut wall = Duration::ZERO;
        for name in &sources {
            let mut s = cat.open(name).expect("source opens");
            let (d, n) = drain(&mut s);
            wall += d;
            input_pts += n;
        }
        wall
    });
    Ok(((total_ns - source_ns).max(0.0) / input_pts.max(1) as f64, peak))
}

/// Second-pass replay cost of band `band` over sectors `[0, n)`.
fn replay_probe(
    archive: &Archive,
    pool: &Arc<WorkerPool>,
    band: u16,
    n: u64,
) -> Result<f64, String> {
    let mut pts = 0;
    let mut pass = || -> Result<Duration, String> {
        let mut r = archive
            .replay(band, Some(0), Some(n as i64), None)
            .map_err(|e| e.to_string())?
            .with_decode_pool(Arc::clone(pool));
        let (d, n) = drain(&mut r);
        pts = n;
        Ok(d)
    };
    pass()?;
    let ns =
        median((0..REPS).map(|_| pass().map(|d| d.as_nanos() as f64)).collect::<Result<_, _>>()?);
    Ok(ns / pts.max(1) as f64)
}
