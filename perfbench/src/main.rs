//! System benchmark of the GeoStreams runtime: closed-loop rounds of
//! `run_supervised` on one of three workloads (`live`, `swarm`,
//! `backfill`), every output checked, end-to-end metrics with
//! `--trace 0` and a per-layer ledger with `--trace 1`. See README.md.
//!
//! Usage: `perfbench --workload <w> --seed <n> --seconds <s> --trace <0|1>
//! [--smoke] [--perturb-digest] [--print-digests]`. The last line of
//! standard output is the JSON result.

mod probes;
mod sys;
mod workloads;

use geostreams_dsms::{RuntimeConfig, ServerMetrics};
use probes::Probes;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Kind, NamedQuery, RoundOut, Workload};

/// Set-up repeats until it has run this long in total (and at least
/// `MIN_SETUPS` times); `setup_s` is the median of the repeats.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;

/// Fewest timed rounds for which `round_p90_ms` has ten samples above it.
const MIN_ROUNDS: usize = 100;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    perturb: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut perturb = false;
    let mut print_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            "--perturb-digest" => perturb = true,
            "--print-digests" => print_digests = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args { kind, seed, seconds, trace, smoke, perturb, print_digests })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = match std::env::current_dir() {
        Ok(d) => {
            d.join(".perfbench_work").join(format!("{}-{}", args.kind.name(), std::process::id()))
        }
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Removed only when no other run is using it.
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Value at quantile `q` (nearest rank) of `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    // Set-up, several times: each builds fresh state (archive seeding,
    // reference digests, warm-up round); the last one is kept.
    let mut setup_times = Vec::new();
    let mut kept = None;
    let started = Instant::now();
    while setup_times.is_empty()
        || (!args.smoke
            && setup_times.len() < MAX_SETUPS
            && (setup_times.len() < MIN_SETUPS || started.elapsed() < SETUP_BUDGET))
    {
        drop(kept.take());
        let dir = work.join(format!("setup-{}", setup_times.len()));
        let t0 = Instant::now();
        let w = Workload::setup(args.kind, args.seed, args.smoke, &dir)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        kept = Some(w);
    }
    let mut w = kept.ok_or("no set-up ran")?;
    if args.print_digests {
        print!("{}", w.reference_lines());
    }
    if args.perturb {
        w.perturb_reference();
    }
    let setups_ms: Vec<String> = setup_times.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    println!(
        "workload {} seed {} sizes {:?} set-ups [{}] ms, flush policy {:?} (group commit {} frames)",
        args.kind.name(),
        args.seed,
        w.sizes,
        setups_ms.join(" "),
        w.archive.as_ref().map(|a| a.config().fsync),
        w.archive.as_ref().map_or(0, |a| a.config().group_commit_frames),
    );
    if args.trace {
        traced(args, &mut w, work)
    } else {
        untraced(args, &mut w, median(&setup_times))
    }
}

/// Closed-loop rounds for `--seconds` (one round in smoke mode).
fn untraced(args: &Args, w: &mut Workload, setup_s: f64) -> Result<String, String> {
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut walls = Vec::new();
    let (mut points, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let u0 = sys::Usage::now();
    let start = Instant::now();
    while walls.is_empty() || (!args.smoke && start.elapsed() < deadline) {
        let r = w.round(None)?;
        walls.push(ms(r.wall));
        points += r.points();
        attempted += r.queries.len() as u64;
        failed += w.failures(&r);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = sys::Usage::now().cpu() - u0.cpu();
    let rss_mb = sys::Usage::now().maxrss_kb as f64 / 1024.0;
    if !args.smoke && walls.len() < MIN_ROUNDS {
        println!(
            "warning: only {} rounds (want {MIN_ROUNDS}); p90 rests on few samples",
            walls.len()
        );
    }
    println!(
        "rounds {} in {elapsed:.2} s, cpu {:.2} s; query-rounds attempted {attempted}, \
         failed {failed} (fail_frac {:.4})",
        walls.len(),
        cpu.as_secs_f64(),
        failed as f64 / attempted as f64
    );
    let metrics = vec![
        ("pts_per_s".to_string(), points as f64 / elapsed, "pts/s"),
        ("round_p50_ms".to_string(), quantile(&walls, 0.5), "ms"),
        ("round_p90_ms".to_string(), quantile(&walls, 0.9), "ms"),
        ("peak_rss_mb".to_string(), rss_mb, "MB"),
        ("setup_s".to_string(), setup_s, "s"),
    ];
    for (n, v, u) in &metrics {
        println!("  {n:<14} {v:>14.4} {u}");
    }
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// What a traced round's public counters said.
#[derive(Default)]
struct Counted {
    cpu_ms: f64,
    sys_frac: f64,
    threads_peak: f64,
    faults: f64,
    gaps: f64,
    dup_points: f64,
    fanout_elements: f64,
    shed: f64,
    distinct_plans: f64,
    chunks_multicast: f64,
    payload_copies: f64,
    pool_jobs: f64,
    pool_steals: f64,
    pool_busy_ms: f64,
    wal_commits: f64,
    wal_bytes: f64,
    bytes_written: f64,
    raw_bytes: f64,
    evicted_segments: f64,
    cache_hits: f64,
    cache_misses: f64,
    splice_refused: f64,
    synth_share: f64,
    unexplained: f64,
}

/// Alternates untraced rounds with traced ones (runtime metrics
/// attached, counters read around the round, thread count sampled),
/// then runs the layer probes and prints the ledger.
fn traced(args: &Args, w: &mut Workload, work: &Path) -> Result<String, String> {
    let deadline = Duration::from_secs_f64(args.seconds);
    let metrics = Arc::new(ServerMetrics::new());
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rounds: Vec<(Vec<NamedQuery>, RoundOut, Counted)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while rounds.is_empty() || (!args.smoke && start.elapsed() < deadline) {
        let r = w.round(None)?;
        plain_walls.push(ms(r.wall));
        attempted += r.queries.len() as u64;
        failed += w.failures(&r);

        let queries = w.queries();
        let before = Snapshot::take(w, &metrics);
        let sampler = sys::ThreadSampler::start();
        let u0 = sys::Usage::now();
        let r = w.round(Some(&metrics))?;
        let u1 = sys::Usage::now();
        let threads_peak = sampler.finish();
        let after = Snapshot::take(w, &metrics);
        traced_walls.push(ms(r.wall));
        attempted += r.queries.len() as u64;
        failed += w.failures(&r);
        let cpu = (u1.cpu() - u0.cpu()).as_secs_f64();
        let workers = RuntimeConfig::default().exec_workers;
        let gauge = |name: &str| -> f64 {
            (0..workers)
                .map(|i| metrics.registry().gauge(name, &[("worker", &i.to_string())]).get() as f64)
                .sum()
        };
        let c = Counted {
            cpu_ms: cpu * 1e3,
            sys_frac: (u1.sys - u0.sys).as_secs_f64() / cpu.max(1e-9),
            threads_peak: threads_peak as f64,
            faults: r.stats.faults_per_band.iter().map(|(_, f)| f.total_injected()).sum::<u64>()
                as f64,
            gaps: r.queries.iter().map(|q| q.gaps).sum::<u64>() as f64,
            dup_points: r.queries.iter().map(|q| q.dup_points).sum::<u64>() as f64,
            fanout_elements: r.stats.elements_per_band.iter().map(|(_, n)| n).sum::<u64>() as f64,
            shed: r.shed() as f64,
            distinct_plans: r.stats.shared_plans as f64,
            chunks_multicast: r.stats.shared_chunks_multicast as f64,
            payload_copies: r.stats.payload_copies as f64,
            pool_jobs: gauge("geostreams_exec_worker_jobs"),
            pool_steals: gauge("geostreams_exec_worker_steals"),
            pool_busy_ms: gauge("geostreams_exec_worker_busy_ns") / 1e6,
            wal_commits: after.wal_commits - before.wal_commits,
            wal_bytes: after.wal_bytes - before.wal_bytes,
            bytes_written: after.bytes_written - before.bytes_written,
            raw_bytes: after.raw_bytes - before.raw_bytes,
            evicted_segments: after.evicted - before.evicted,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            splice_refused: after.refused - before.refused,
            synth_share: 0.0,
            unexplained: 0.0,
        };
        rounds.push((queries, r, c));
    }
    let probe_dir = work.join("probes");
    let probes = probes::run(w, &probe_dir)?;
    let _ = std::fs::remove_dir_all(&probe_dir);
    for (queries, r, c) in &mut rounds {
        let (busy_ns, synth_ns) = ledger_busy_ns(w.kind, &probes, queries, r, c);
        let cpu_ns = c.cpu_ms * 1e6;
        c.unexplained = 1.0 - busy_ns / cpu_ns;
        c.synth_share = synth_ns / cpu_ns;
    }
    let med = |f: &dyn Fn(&Counted) -> f64| -> f64 {
        median(&rounds.iter().map(|(_, _, c)| f(c)).collect::<Vec<_>>())
    };
    let sum = |f: &dyn Fn(&Counted) -> f64| -> f64 { rounds.iter().map(|(_, _, c)| f(c)).sum() };
    // Per-round mean, for counts that should be 0: any non-zero round shows.
    let mean = |f: &dyn Fn(&Counted) -> f64| -> f64 { sum(f) / rounds.len() as f64 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |n: &str, v: f64| {
        values.insert(n.to_string(), v);
    };
    put("satsim.synth_ns_per_pt", probes.synth_ns_per_pt);
    put("satsim.synth_cpu_share", med(&|c| c.synth_share));
    put("satsim.chaos_ns_per_pt", probes.chaos_ns_per_pt);
    put("satsim.faults_injected", med(&|c| c.faults));
    put("model.repair_ns_per_pt", probes.repair_ns_per_pt);
    put("model.repair_gaps", med(&|c| c.gaps));
    put("model.repair_dup_points", med(&|c| c.dup_points));
    put("query.admit_us_per_query", probes.admit_us_per_query);
    put("query.plan_cache_hit_ratio", probes.plan_cache_hit_ratio);
    for (name, (ns, peak)) in &probes.ops {
        put(&format!("ops.{name}.ns_per_pt"), *ns);
        put(&format!("ops.{name}.peak_buffer_bytes"), *peak as f64);
    }
    put("exec.pool_jobs", med(&|c| c.pool_jobs));
    put("exec.pool_steals", med(&|c| c.pool_steals));
    put("exec.pool_busy_ms", med(&|c| c.pool_busy_ms));
    put("exec.pool_over_serial", probes.pool_over_serial);
    put("fanout.elements", med(&|c| c.fanout_elements));
    put("fanout.shed_elements", mean(&|c| c.shed));
    put("proc.threads_peak", med(&|c| c.threads_peak));
    put("proc.sys_frac", med(&|c| c.sys_frac));
    put("proc.cpu_ms_per_round", med(&|c| c.cpu_ms));
    put("share.distinct_plans", med(&|c| c.distinct_plans));
    put("share.chunks_multicast", med(&|c| c.chunks_multicast));
    put("share.payload_copies", mean(&|c| c.payload_copies));
    put("share.multicast_ns_per_sub_item", probes.multicast_ns_per_sub_item);
    put("delivery.png_ms_per_frame", probes.png_ms_per_frame);
    put("delivery.png_bytes", probes.png_bytes);
    put("store.ingest_ns_per_pt", probes.ingest_ns_per_pt);
    put("store.wal_commits", med(&|c| c.wal_commits));
    put("store.wal_bytes", med(&|c| c.wal_bytes));
    put("store.bytes_written", med(&|c| c.bytes_written));
    put("store.evicted_segments", mean(&|c| c.evicted_segments));
    put("store.compression_ratio", ratio(sum(&|c| c.raw_bytes), sum(&|c| c.bytes_written)));
    put("store.replay_hot_ns_per_pt", probes.replay_hot_ns_per_pt);
    put("store.replay_cold_ns_per_pt", probes.replay_cold_ns_per_pt);
    let hits = sum(&|c| c.cache_hits);
    put("store.tile_cache_hit_ratio", ratio(hits, hits + sum(&|c| c.cache_misses)));
    put("store.splice_refused", mean(&|c| c.splice_refused));
    put("ledger.unexplained_frac", med(&|c| c.unexplained));
    put("trace.overhead_frac", median(&traced_walls) / median(&plain_walls) - 1.0);

    println!(
        "traced {} rounds alternating with {} untraced; query-rounds attempted {attempted}, \
         failed {failed} (fail_frac {:.4})",
        traced_walls.len(),
        plain_walls.len(),
        failed as f64 / attempted as f64
    );
    println!(
        "per-layer ledger, workload {} (layer metric, value, unit, should move):",
        w.kind.name()
    );
    let mut metrics = Vec::new();
    for (name, unit, moves) in layer_table() {
        let v = *values.get(&name).ok_or(format!("layer metric {name} not measured"))?;
        println!("  {name:<34} {v:>16.4} {unit:<6} -> {moves}");
        metrics.push((name, v, unit));
    }
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// Archive and registry counters, read before and after a traced round.
#[derive(Default)]
struct Snapshot {
    wal_commits: f64,
    wal_bytes: f64,
    bytes_written: f64,
    raw_bytes: f64,
    evicted: f64,
    hits: f64,
    misses: f64,
    refused: f64,
}

impl Snapshot {
    fn take(w: &Workload, m: &ServerMetrics) -> Snapshot {
        let counter = |name: &str| m.registry().counter_value(name, &[]).unwrap_or(0) as f64;
        let mut s = Snapshot {
            hits: counter("geostreams_store_tile_cache_hits_total"),
            misses: counter("geostreams_store_tile_cache_misses_total"),
            refused: counter("geostreams_store_splice_refused_total"),
            ..Snapshot::default()
        };
        if let Some(a) = &w.archive {
            let st = a.stats();
            s.wal_commits = st.wal_commits as f64;
            s.wal_bytes = st.wal_bytes as f64;
            s.bytes_written = st.bytes_written as f64;
            s.raw_bytes = st.raw_bytes as f64;
            s.evicted = st.evicted_segments as f64;
        }
        s
    }
}

/// The round's busy time as the layer probes price it: each layer's
/// per-unit cost times the work the round's counters say it did.
/// Returns (total, synthesis share) in nanoseconds.
fn ledger_busy_ns(
    kind: Kind,
    p: &Probes,
    queries: &[NamedQuery],
    r: &RoundOut,
    c: &Counted,
) -> (f64, f64) {
    let synth = p.synth_ns_per_pt * c.fanout_elements;
    let mut ns = synth;
    if kind == Kind::Live {
        ns += p.chaos_ns_per_pt * c.fanout_elements;
    }
    // Shared plans evaluate (and repair) once per distinct plan.
    let mut seen = HashSet::new();
    for (q, out) in queries.iter().zip(&r.queries) {
        if kind == Kind::Swarm && !seen.insert(q.name) {
            continue;
        }
        let input = out.repaired_points as f64;
        ns += p.repair_ns_per_pt * input;
        if let Some((op_ns, _)) = p.ops.get(q.name) {
            ns += op_ns * input;
        }
        ns += p.png_ms_per_frame * 1e6 * out.frames as f64;
        ns += match q.name {
            "cold" => p.replay_cold_ns_per_pt * input,
            "hot" => p.replay_hot_ns_per_pt * input,
            // Half of the hybrid window is archived, half live.
            "hybrid" => p.replay_hot_ns_per_pt * input / 2.0,
            _ => 0.0,
        };
    }
    ns += p.ingest_ns_per_pt * c.raw_bytes / 4.0;
    ns += p.multicast_ns_per_sub_item * c.chunks_multicast;
    ns += p.admit_us_per_query * 1e3 * queries.len() as f64;
    (ns, synth)
}

/// Every per-layer metric: name, unit, and the end-to-end metric (and
/// workload) it should move.
fn layer_table() -> Vec<(String, &'static str, &'static str)> {
    let fixed: &[(&str, &str, &str)] = &[
        ("satsim.synth_ns_per_pt", "ns/pt", "live/pts_per_s, live/round_p50_ms, backfill/setup_s"),
        ("satsim.synth_cpu_share", "ratio", "live/pts_per_s, live/round_p50_ms, backfill/setup_s"),
        ("satsim.chaos_ns_per_pt", "ns/pt", "live/round_p50_ms"),
        ("satsim.faults_injected", "count", "live/round_p50_ms (exact, repeats)"),
        ("model.repair_ns_per_pt", "ns/pt", "live/round_p50_ms"),
        ("model.repair_gaps", "count", "live/round_p50_ms (exact, repeats)"),
        ("model.repair_dup_points", "count", "live/round_p50_ms (exact, repeats)"),
        ("query.admit_us_per_query", "us", "swarm/round_p50_ms"),
        ("query.plan_cache_hit_ratio", "ratio", "swarm/round_p50_ms"),
    ];
    let tail: &[(&str, &str, &str)] = &[
        ("exec.pool_jobs", "count", "live/pts_per_s"),
        ("exec.pool_steals", "count", "live/pts_per_s"),
        ("exec.pool_busy_ms", "ms", "live/pts_per_s"),
        ("exec.pool_over_serial", "ratio", "live/pts_per_s"),
        ("fanout.elements", "count", "failed/attempted, all workloads"),
        ("fanout.shed_elements", "count", "failed/attempted, all workloads (must be 0)"),
        ("proc.threads_peak", "count", "swarm/round_p50_ms, swarm/peak_rss_mb"),
        ("proc.sys_frac", "ratio", "swarm/round_p50_ms, swarm/peak_rss_mb"),
        ("proc.cpu_ms_per_round", "ms", "swarm/round_p50_ms, swarm/peak_rss_mb"),
        ("share.distinct_plans", "count", "swarm/pts_per_s (exact)"),
        ("share.chunks_multicast", "count", "swarm/pts_per_s (exact)"),
        ("share.payload_copies", "count", "swarm/pts_per_s (0 = no payload deep-copied)"),
        ("share.multicast_ns_per_sub_item", "ns", "swarm/round_p50_ms, swarm/pts_per_s"),
        ("delivery.png_ms_per_frame", "ms", "live/round_p50_ms"),
        ("delivery.png_bytes", "bytes", "live/round_p50_ms"),
        ("store.ingest_ns_per_pt", "ns/pt", "live/round_p50_ms, backfill/setup_s"),
        ("store.wal_commits", "count", "live/round_p50_ms"),
        ("store.wal_bytes", "bytes", "live/round_p50_ms"),
        ("store.bytes_written", "bytes", "live/round_p50_ms"),
        ("store.evicted_segments", "count", "live/round_p50_ms"),
        ("store.compression_ratio", "ratio", "live/round_p50_ms (space)"),
        ("store.replay_hot_ns_per_pt", "ns/pt", "backfill/round_p50_ms"),
        ("store.replay_cold_ns_per_pt", "ns/pt", "backfill/pts_per_s, backfill/round_p90_ms"),
        ("store.tile_cache_hit_ratio", "ratio", "backfill/round_p50_ms"),
        ("store.splice_refused", "count", "backfill (exact, must be 0)"),
        ("ledger.unexplained_frac", "ratio", "runtime overhead: threads, channels, handoff"),
        ("trace.overhead_frac", "ratio", "none: the cost of tracing itself"),
    ];
    let mut out: Vec<(String, &str, &str)> =
        fixed.iter().map(|(n, u, m)| (n.to_string(), *u, *m)).collect();
    for q in workloads::op_pipelines() {
        let moves = match q.name {
            "focal3" | "restrict_ir" | "downsample_ir" => "swarm/round_p50_ms",
            _ => "live/pts_per_s",
        };
        out.push((format!("ops.{}.ns_per_pt", q.name), "ns/pt", moves));
        out.push((format!("ops.{}.peak_buffer_bytes", q.name), "bytes", "live/peak_rss_mb"));
    }
    out.extend(tail.iter().map(|(n, u, m)| (n.to_string(), *u, *m)));
    out
}
