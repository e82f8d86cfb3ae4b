//! `servebench` — the serving benchmark.
//!
//! Runs one seeded workload through [`ServiceGroup`] from the outside,
//! checks the answers, and prints one JSON result line:
//!
//! ```text
//! servebench --workload <khop_uniform|zipf_hot|commit_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics and writes the run's spans under `.servebench/`.
//! See `README.md` next to this crate for the workloads and metrics.

mod check;
mod client;
mod inputs;
mod layers;
mod probe;
mod report;
mod trace;
mod writer;

use cgraph_core::index_api::IndexConfig;
use cgraph_core::{
    DistributedEngine, DurabilityConfig, EdgeUpdate, EngineConfig, EngineError, GroupConfig,
    IndexBuilder, KhopQuery, MutationConfig, QueryPlaneConfig, ReachIndex, RouterConfig,
    ServiceConfig, ServiceGroup,
};
use cgraph_graph::EdgeList;
use cgraph_index::BoundaryIndexBuilder;
use client::{error_kind, Answer, Recorder, Stop, Stream};
use inputs::{Rng, Workload, K};
use report::{hd_quantile, median, quantile, sorted_in, Metrics, PhaseCount};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use writer::{ok_commit_ms, write_loop, CommitRec};

/// Simulated machines of the engine.
const MACHINES: usize = 2;
/// Front-end replicas of the group.
const REPLICAS: usize = 2;
/// Result-cache bytes per replica: about 512 three-hop entries (64
/// bytes of overhead plus 8 per level each), far below the thousands
/// of distinct sources either read workload asks for.
const CACHE_BYTES_PER_REPLICA: usize = 48 << 10;
/// Delta entries above which a commit folds the overlay into the base
/// edge-sets: a `commit_mix` run folds a few times.
const FOLD_THRESHOLD: usize = 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 4;
/// Queries of the warm-up phase that ends each set-up.
const WARMUP_QUERIES: usize = 1024;
/// Writer pause between commits on `commit_mix`.
const WRITER_THINK: Duration = Duration::from_millis(20);
/// Pause of each `commit_mix` client slot between a reply and its next
/// query: the read rate is set by the 64 slots and by how long commits
/// stall them, not by how fast one thread spins through cache hits.
const READ_THINK: Duration = Duration::from_millis(2);
/// Commits timed by each set-up probe of the read-only workloads, after
/// one untimed commit that warms the commit path (so 3 × 24 in all);
/// every 8th writes a snapshot, as on `commit_mix`.
const PROBE_COMMITS: usize = 24;
/// Commits a traced run of a read-only workload times on its own graph
/// once the reads have stopped, for the per-layer metrics.
const TRACED_COMMITS: usize = 6;
/// Smallest `fail_ratio` reported: one failure in a million queries.
/// A fault-free run reads exactly this, and a single failure in a run
/// (fewer than a million queries) reads well above it.
const FAIL_RATIO_FLOOR: f64 = 1e-6;
/// Length of the windows the measured phase is cut into; `qps` and the
/// latency quantiles are medians over the windows, so a burst of noise
/// from outside the program moves at most a minority of them.
const WINDOW: Duration = Duration::from_secs(2);
/// `khop_uniform` answers checked against the reference per run.
const UNIFORM_CHECKED: usize = 512;
/// `commit_mix` epochs checked against a rebuild, and answers per epoch.
const COMMIT_CHECKED_EPOCHS: usize = 6;
const COMMIT_CHECKED_PER_EPOCH: usize = 64;
/// Sources re-asked after reopening the `commit_mix` data directory.
const REASKED: usize = 32;
/// Lane-width chunks replayed through the engine on a traced run.
const REPLAY_CHUNKS: usize = 16;
/// Scratch directory, relative to the working directory.
const WORK_DIR: &str = ".servebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set when this process is a set-up probe (see `probe`): set up
    /// once, time the probe commits, print what it measured and exit.
    setup_probe: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--setup-probe" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or_else(|| format!("missing {f}"));
    let workload = get("--workload")?;
    let num = |f: &str| get(f)?.parse::<u64>().map_err(|e| format!("{f}: {e}"));
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        setup_probe: match flags.get("--setup-probe") {
            Some(r) => Some(r.parse().map_err(|e| format!("--setup-probe: {e}"))?),
            None => None,
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <khop_uniform|zipf_hot|commit_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(rep) = args.setup_probe {
        return match probe::child(&args, rep) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok((line, true)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok((line, false)) => {
            println!("{line}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Start and end of each `IndexBuilder::build` call, in call order.
type BuildLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// The index builder the service runs, timed from outside: every
/// start-up build and every rebuild inside a commit goes through it.
struct TimedIndex {
    inner: BoundaryIndexBuilder,
    log: BuildLog,
}

impl IndexBuilder for TimedIndex {
    fn build(&self, engine: &DistributedEngine) -> Result<Arc<dyn ReachIndex>, EngineError> {
        let start = Instant::now();
        let built = self.inner.build(engine);
        self.log.lock().expect("build log lock poisoned").push((start, Instant::now()));
        built
    }
}

/// The one serving configuration: two replicas, result cache,
/// coalescing, and the boundary index with hops = k over the 64
/// highest-out-degree boundary vertices. Only `commit_mix` adds a
/// data directory.
fn group_config(log: &BuildLog, data_dir: Option<&Path>) -> GroupConfig {
    let index = TimedIndex {
        inner: BoundaryIndexBuilder::new(IndexConfig {
            hops: K,
            max_sources: inputs::INDEX_SOURCES,
        }),
        log: Arc::clone(log),
    };
    GroupConfig {
        replicas: REPLICAS,
        router: RouterConfig::default(),
        service: ServiceConfig {
            query_plane: QueryPlaneConfig {
                cache_capacity_bytes: Some(CACHE_BYTES_PER_REPLICA),
                coalesce: true,
                ..Default::default()
            },
            index: Some(Arc::new(index)),
            mutation: MutationConfig { fold_threshold: FOLD_THRESHOLD, ..Default::default() },
            durability: data_dir.map(DurabilityConfig::new),
            ..Default::default()
        },
    }
}

/// A started group with its inputs.
struct Served {
    edges: EdgeList,
    engine: Arc<DistributedEngine>,
    group: ServiceGroup,
    builds: BuildLog,
    stream: Vec<u64>,
    data_dir: Option<PathBuf>,
    /// Every query of this process, warm-up first.
    rec: Recorder,
    /// The warm-up's records in `rec`.
    warmup: Range<usize>,
}

/// Seconds spent in each set-up step.
#[derive(Clone, Copy)]
struct SetupTimes {
    generate: f64,
    build: f64,
    start: f64,
    total: f64,
}

/// A fresh, empty data directory for set-up `rep` of this run.
fn data_dir(args: &Args, rep: usize) -> Result<PathBuf, String> {
    let dir = Path::new(WORK_DIR).join(format!(
        "data-{}-{}-{}-{rep}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Graph generation, engine construction, group start (first index
/// build included) and warm-up — everything `setup_s` times.
fn set_up(args: &Args, rep: usize, tracer: &mut Tracer) -> Result<(Served, SetupTimes), String> {
    let w = args.workload;
    let t0 = Instant::now();
    let edges = inputs::graph(w, args.seed);
    let t1 = Instant::now();
    let engine = Arc::new(DistributedEngine::new(&edges, EngineConfig::new(MACHINES)));
    let t2 = Instant::now();
    // Drawing the query stream is the benchmark's work, not set-up.
    let stream = inputs::query_stream(w, args.seed, &edges, &engine);
    let dir = if w == Workload::CommitMix { Some(data_dir(args, rep)?) } else { None };
    let builds = BuildLog::default();
    let t3 = Instant::now();
    let group = ServiceGroup::try_start(Arc::clone(&engine), group_config(&builds, dir.as_deref()))
        .map_err(|e| format!("group start: {e}"))?;
    let t4 = Instant::now();
    let mut rec = Recorder::new();
    let warmup = client::run_phase(
        &group,
        &mut Stream::new(&stream, 0),
        Stop::Count(WARMUP_QUERIES),
        Duration::ZERO,
        &|_| false,
        tracer,
        &mut rec,
    );
    let t5 = Instant::now();
    let times = SetupTimes {
        generate: (t1 - t0).as_secs_f64(),
        build: (t2 - t1).as_secs_f64(),
        start: (t4 - t3).as_secs_f64(),
        total: ((t2 - t0) + (t5 - t3)).as_secs_f64(),
    };
    if tracer.enabled() {
        let id = tracer.next_id();
        let root = tracer.root("setup", id, t0, t5);
        tracer.push(Span::child("graph.generate", id, root, t0, t1));
        tracer.push(Span::child("engine.build", id, root, t1, t2));
        tracer.push(Span::child("inputs.draw", id, root, t2, t3));
        let start = tracer.push(Span::child("service.start", id, root, t3, t4));
        for &(a, b) in builds.lock().expect("build log lock poisoned").iter() {
            tracer.push(Span::child("index.build", id, start, a, b));
        }
        tracer.push(Span::child("warmup", id, root, t4, t5));
    }
    let served = Served { edges, engine, group, builds, stream, data_dir: dir, rec, warmup };
    Ok((served, times))
}

fn tear_down(group: ServiceGroup, dir: Option<&Path>) {
    group.shutdown();
    drop(group);
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Runs the workload; returns the result line and whether every
/// checked answer was correct.
fn run(args: &Args) -> Result<(String, bool), String> {
    let w = args.workload;
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let mut tracer = Tracer::new(args.trace);
    let mut phases: Vec<(&str, PhaseCount)> = Vec::new();

    // Set up several times; the median set-up time is the one reported.
    // All but the last set-up run as child processes (see `probe`).
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut warmups = PhaseCount::default();
    let mut commit_ms: Vec<f64> = Vec::new();
    let mut probe_commits = PhaseCount::default();
    for rep in 0..SETUP_REPEATS - 1 {
        let p = probe::run(args, rep)?;
        setups.push(p.times);
        warmups.merge(p.warmup);
        commit_ms.extend(p.commit_ms);
        probe_commits.merge(p.commits);
    }
    let (mut served, times) = set_up(args, SETUP_REPEATS - 1, &mut tracer)?;
    setups.push(times);
    let failures =
        |recs: &[client::QueryRec]| PhaseCount::of(recs.iter().map(|r| r.outcome.failure()));
    warmups.merge(failures(&served.rec.recs[served.warmup.clone()]));
    phases.push(("warmup", warmups));
    let batches = inputs::update_batches(args.seed, &served.edges);

    // Measured phase. On a traced run, odd seconds are traced and even
    // seconds are not, so tracing overhead is measured on the same
    // seed, graph and cache state.
    let group = &served.group;
    let before = group.stats();
    let router_before = group.router_stats();
    let start = Instant::now();
    let end = start + Duration::from_secs(args.seconds);
    let traced_at = |e: Duration| args.trace && e.as_secs() % 2 == 1;
    let mut stream = Stream::new(&served.stream, WARMUP_QUERIES);
    let think = if w == Workload::CommitMix { READ_THINK } else { Duration::ZERO };
    let rec = &mut served.rec;
    let (measured, writes) = std::thread::scope(|scope| {
        let writer = (w == Workload::CommitMix)
            .then(|| scope.spawn(|| write_loop(group, &batches, Stop::At(end), WRITER_THINK)));
        let measured = client::run_phase(
            group,
            &mut stream,
            Stop::At(end),
            think,
            &traced_at,
            &mut tracer,
            rec,
        );
        let writes = writer.map(|h| h.join().expect("writer thread panicked")).unwrap_or_default();
        (measured, writes)
    });
    // Peak memory of set-up and serving, read before the correctness
    // gate builds its reference engine.
    let rss_mb = report::rss_peak_mb();
    let after = group.stats();
    let router_after = group.router_stats();
    let measured_count = failures(&served.rec.recs[measured.clone()]);
    phases.push(("measured", measured_count.clone()));
    if w == Workload::CommitMix {
        phases.push(("writer", PhaseCount::of(writes.iter().map(CommitRec::failure))));
    }

    // Correctness gates.
    let mut problems: Vec<String> = served.rec.answers.conflicts.clone();
    let mut sampler = Rng::new(args.seed, inputs::SAMPLING);
    let answers: Vec<&Answer> = served.rec.answers.list.iter().collect();
    match w {
        Workload::ZipfHot => problems.extend(check::mismatches(&served.edges, 0, &answers)),
        Workload::KhopUniform => {
            let sample: Vec<&Answer> = (0..UNIFORM_CHECKED.min(answers.len()))
                .map(|_| answers[sampler.below(answers.len() as u64) as usize])
                .collect();
            problems.extend(check::mismatches(&served.edges, 0, &sample));
        }
        Workload::CommitMix => problems.extend(check_commit_mix(
            &served.edges,
            &answers,
            &writes,
            &batches,
            &mut sampler,
        )),
    }

    // Commit latency. On the read-only workloads the end-to-end commit
    // metrics come from the set-up probes' commits on the `commit_mix`
    // graph (see `probe`); a traced run also times a few commits on this
    // graph, once the reads have stopped, for the per-layer metrics.
    let group = &served.group;
    let commits: Vec<CommitRec> = if w == Workload::CommitMix {
        commit_ms.extend(ok_commit_ms(&writes));
        writes
    } else {
        let ms: Vec<String> = commit_ms.iter().map(|x| format!("{x:.0}")).collect();
        eprintln!("servebench: probe commit ms: [{}]", ms.join(", "));
        let probe = if args.trace {
            write_loop(group, &batches, Stop::Count(TRACED_COMMITS), Duration::ZERO)
        } else {
            Vec::new()
        };
        probe_commits.merge(PhaseCount::of(probe.iter().map(CommitRec::failure)));
        phases.push(("commit_probe", probe_commits));
        probe
    };
    commit_ms.sort_by(f64::total_cmp);
    let final_stats = group.stats();
    let lanes = group.effective_lanes();

    // Restart: reopen the data directory and re-ask.
    let mut recovery: Option<(f64, u64)> = None;
    let Served { edges, engine, group, builds, data_dir, stream, rec, .. } = served;
    if let Some(dir) = data_dir.as_deref() {
        let acked = commits.iter().filter_map(|c| c.result.ok()).max().unwrap_or(0);
        let reopened = reopen(&edges, group, dir, acked, &stream, &mut tracer);
        let _ = std::fs::remove_dir_all(dir);
        let r = reopened?;
        recovery = Some((r.recover_ms, r.wal_replayed));
        phases.push(("reask", r.reask));
        problems.extend(r.problems);
    } else {
        tear_down(group, None);
    }

    for p in problems.iter().take(10) {
        eprintln!("servebench: WRONG ANSWER: {p}");
    }
    let phase_json: Vec<String> =
        phases.iter().map(|(n, c)| format!("\"{n}\": {}", c.json())).collect();
    eprintln!("servebench phases: {{{}}}", phase_json.join(", "));
    let writer = match w {
        Workload::CommitMix => PhaseCount::of(commits.iter().map(CommitRec::failure)),
        _ => PhaseCount::default(),
    };
    let attempted = measured_count.attempted + writer.attempted;
    let failed = measured_count.failed_total() + writer.failed_total();
    let correct = problems.is_empty();
    let recs = &rec.recs[measured];

    let mut m = Metrics::default();
    if !args.trace {
        m.add("setup_s", median(&setups.iter().map(|s| s.total).collect::<Vec<_>>()), "s");
        windowed(&mut m, &rec, recs, start, args.seconds);
        let fail_ratio =
            measured_count.failed_total() as f64 / measured_count.attempted.max(1) as f64;
        m.add("fail_ratio", fail_ratio.max(FAIL_RATIO_FLOOR), "ratio");
        m.add("commit_p50_ms", hd_quantile(&commit_ms, 0.50), "ms");
        m.add("commit_p90_ms", hd_quantile(&commit_ms, 0.90), "ms");
        m.add("rss_peak_mb", rss_mb, "MiB");
    } else {
        let inputs = layers::LayerInputs {
            setups: &setups,
            rec: &rec,
            measured: recs,
            commits: &commits,
            builds: &builds.lock().expect("build log lock poisoned"),
            stats: (&before, &after, &final_stats),
            router: (&router_before, &router_after),
            recovery,
            start,
            seconds: args.seconds,
            think,
        };
        layers::report(&mut m, &inputs, &engine, lanes, &mut tracer);
        let path = Path::new(WORK_DIR).join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        tracer.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("servebench: {} spans written to {}", tracer.spans().len(), path.display());
    }
    Ok((m.result_line(correct, attempted.max(1), failed), correct))
}

/// Adds `qps`, `latency_p50_ms` and `latency_p99_ms`: the measured
/// phase is cut into [`WINDOW`]s by reply time (replies after the
/// deadline, the drain, fall in none), and each metric is the
/// Harrell–Davis median over the windows of that window's rate or
/// quantile.
fn windowed(
    m: &mut Metrics,
    rec: &Recorder,
    recs: &[client::QueryRec],
    start: Instant,
    seconds: u64,
) {
    let window = WINDOW.min(Duration::from_secs(seconds));
    let windows = (seconds as f64 / window.as_secs_f64()) as usize;
    let mut per_window: Vec<Vec<Duration>> = vec![Vec::new(); windows];
    for r in recs.iter().filter(|r| r.answered()) {
        let at = rec.done_at(r).saturating_duration_since(start);
        if let Some(v) = per_window.get_mut((at.as_secs_f64() / window.as_secs_f64()) as usize) {
            v.push(r.latency());
        }
    }
    let rates: Vec<String> = per_window
        .iter()
        .map(|v| format!("{:.0}", v.len() as f64 / window.as_secs_f64()))
        .collect();
    eprintln!("servebench: answers/s per {}s window: [{}]", window.as_secs(), rates.join(", "));
    let sorted: Vec<Vec<f64>> = per_window.into_iter().map(|v| sorted_in(v, 1e-3)).collect();
    let over_windows = |f: &dyn Fn(&[f64]) -> f64| {
        let mut per: Vec<f64> = sorted.iter().map(|xs| f(xs)).collect();
        per.sort_by(f64::total_cmp);
        hd_quantile(&per, 0.5)
    };
    m.add("qps", over_windows(&|xs| xs.len() as f64 / window.as_secs_f64()), "1/s");
    m.add("latency_p50_ms", over_windows(&|xs| quantile(xs, 0.50)), "ms");
    m.add("latency_p99_ms", over_windows(&|xs| quantile(xs, 0.99)), "ms");
}

/// `commit_mix` answers against a rebuild of the graph at the epoch
/// each answer is stamped with.
fn check_commit_mix(
    base: &EdgeList,
    answers: &[&Answer],
    writes: &[CommitRec],
    batches: &[Vec<EdgeUpdate>],
    sampler: &mut Rng,
) -> Vec<String> {
    // prefix[e] = batches applied before the commit that published
    // epoch e; the writer is the only committer.
    let mut prefix = vec![0usize];
    let mut applied = 0usize;
    for c in writes {
        applied += usize::from(c.applied);
        if let Ok(e) = c.result {
            if e as usize != prefix.len() {
                return vec![format!("commit returned epoch {e}, expected {}", prefix.len())];
            }
            prefix.push(applied);
        }
    }
    let applied_batches: Vec<&Vec<EdgeUpdate>> =
        writes.iter().zip(batches).filter(|(c, _)| c.applied).map(|(_, b)| b).collect();
    let mut by_epoch: BTreeMap<u64, Vec<&Answer>> = BTreeMap::new();
    for &a in answers {
        by_epoch.entry(a.epoch).or_default().push(a);
    }
    let epochs: Vec<u64> = by_epoch.keys().copied().collect();
    let mut chosen: BTreeSet<u64> = epochs.last().copied().into_iter().collect();
    while chosen.len() < COMMIT_CHECKED_EPOCHS.min(epochs.len()) {
        chosen.insert(epochs[sampler.below(epochs.len() as u64) as usize]);
    }
    let mut problems = Vec::new();
    for e in chosen {
        let Some(&n) = prefix.get(e as usize) else {
            problems.push(format!("answer stamped with epoch {e}, never committed"));
            continue;
        };
        let at = &by_epoch[&e];
        let sample: Vec<&Answer> = (0..COMMIT_CHECKED_PER_EPOCH.min(at.len()))
            .map(|_| at[sampler.below(at.len() as u64) as usize])
            .collect();
        let edges = inputs::edges_after(base, applied_batches[..n].iter().copied());
        problems.extend(check::mismatches(&edges, e, &sample));
    }
    problems
}

/// What reopening the `commit_mix` data directory found.
struct Reopened {
    /// Time `open_or_recover` took, in ms.
    recover_ms: f64,
    /// WAL records it replayed.
    wal_replayed: u64,
    /// Counts of the re-asked queries, before and after the restart.
    reask: PhaseCount,
    /// Lost epochs and changed answers.
    problems: Vec<String>,
}

/// A re-asked query's `(epoch, visited, per_level)`, or its error kind.
type Asked = Result<(u64, u64, Vec<u64>), &'static str>;

/// Shuts `group` down, reopens its data directory with
/// `ServiceGroup::open_or_recover`, and checks that the last
/// acknowledged epoch survived and that re-asked answers are
/// unchanged.
fn reopen(
    edges: &EdgeList,
    group: ServiceGroup,
    dir: &Path,
    acked: u64,
    stream: &[u64],
    tracer: &mut Tracer,
) -> Result<Reopened, String> {
    let mut problems = Vec::new();
    let mut seen = BTreeSet::new();
    let sources: Vec<u64> =
        stream.iter().copied().filter(|s| seen.insert(*s)).take(REASKED).collect();
    let ask = |g: &ServiceGroup| -> Vec<Asked> {
        sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                g.query(KhopQuery::single(i, s, K))
                    .map(|r| (r.epoch, r.visited, r.per_level))
                    .map_err(|e| error_kind(&e))
            })
            .collect()
    };
    let before = ask(&group);
    group.shutdown();
    drop(group);
    let log = BuildLog::default();
    let t0 = Instant::now();
    let (reopened, outcome) = ServiceGroup::open_or_recover(
        edges,
        EngineConfig::new(MACHINES),
        group_config(&log, Some(dir)),
    )
    .map_err(|e| format!("open_or_recover: {e}"))?;
    let t1 = Instant::now();
    if tracer.enabled() {
        let id = tracer.next_id();
        let root = tracer.root("recover", id, t0, t1);
        for &(a, b) in log.lock().expect("build log lock poisoned").iter() {
            tracer.push(Span::child("index.build", id, root, a, b));
        }
    }
    if reopened.graph_epoch() != acked {
        problems.push(format!(
            "reopened at epoch {}, last acknowledged epoch was {acked}",
            reopened.graph_epoch()
        ));
    }
    let after = ask(&reopened);
    reopened.shutdown();
    let reask = PhaseCount::of(before.iter().chain(&after).map(|r| r.as_ref().err().copied()));
    for (s, (b, a)) in sources.iter().zip(before.iter().zip(&after)) {
        if let (Ok(b), Ok(a)) = (b, a) {
            if b != a {
                problems.push(format!("source {s}: answer {b:?} before restart, {a:?} after"));
            }
        }
    }
    Ok(Reopened {
        recover_ms: (t1 - t0).as_secs_f64() * 1e3,
        wal_replayed: outcome.wal_records_replayed,
        reask,
        problems,
    })
}
