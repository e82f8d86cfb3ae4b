//! Per-layer metrics of a traced run, from timing calls into public
//! functions and from `ServiceStats`/`RouterStats` snapshots.

use crate::client::{QueryRec, Recorder, OUTSTANDING};
use crate::inputs::K;
use crate::report::{gained, median, quantile, ratio, sorted_in, Metrics};
use crate::trace::{Span, Tracer};
use crate::writer::CommitRec;
use crate::{SetupTimes, REPLAY_CHUNKS};
use cgraph_core::{DistributedEngine, RouterStats, ServiceStats};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// What a traced run hands the per-layer report.
pub struct LayerInputs<'a> {
    /// Every set-up's times.
    pub setups: &'a [SetupTimes],
    /// The run's queries and answers.
    pub rec: &'a Recorder,
    /// The measured queries.
    pub measured: &'a [QueryRec],
    /// The writer's cycles (`commit_mix`) or the probe commits.
    pub commits: &'a [CommitRec],
    /// Every index build of the serving group.
    pub builds: &'a [(Instant, Instant)],
    /// Stats before and after the measured phase, and at the end.
    pub stats: (&'a ServiceStats, &'a ServiceStats, &'a ServiceStats),
    /// Router stats before and after the measured phase.
    pub router: (&'a RouterStats, &'a RouterStats),
    /// `(recover_ms, wal_replayed)` of the reopen (`commit_mix`).
    pub recovery: Option<(f64, u64)>,
    /// Start of the measured phase.
    pub start: Instant,
    /// Length of the measured phase.
    pub seconds: u64,
    /// Each client slot's pause between a reply and its next query.
    pub think: Duration,
}

/// Adds every per-layer metric to `m`; replays the run's distinct
/// sources through `engine` in chunks of `lanes`.
pub fn report(
    m: &mut Metrics,
    l: &LayerInputs<'_>,
    engine: &DistributedEngine,
    lanes: usize,
    tracer: &mut Tracer,
) {
    let (b, a, fs) = l.stats;
    let recs = l.measured;
    let queries = recs.len() as f64;

    // Set-up.
    let med = |f: fn(&SetupTimes) -> f64| median(&l.setups.iter().map(f).collect::<Vec<_>>());
    m.add("graph.generate_s", med(|s| s.generate), "s");
    m.add("engine.build_s", med(|s| s.build), "s");
    m.add("service.start_s", med(|s| s.start), "s");

    // Service.
    let submit_us = sorted_in(recs.iter().map(QueryRec::submit_time), 1e-6);
    m.add("service.submit_p50_us", quantile(&submit_us, 0.50), "us");
    m.add("service.submit_p99_us", quantile(&submit_us, 0.99), "us");
    let wait = sorted_in(gained(a.admission_wait.sorted(), b.admission_wait.sorted()), 1e-3);
    let exec = sorted_in(gained(a.exec.sorted(), b.exec.sorted()), 1e-3);
    m.add("service.admission_wait_p50_ms", quantile(&wait, 0.50), "ms");
    m.add("service.admission_wait_p99_ms", quantile(&wait, 0.99), "ms");
    m.add("service.exec_p50_ms", quantile(&exec, 0.50), "ms");
    let hits = (a.cache_hits - b.cache_hits) as f64;
    let index_only = (a.index_only_answers - b.index_only_answers) as f64;
    let coalesced = (a.coalesced_traversals - b.coalesced_traversals) as f64;
    let completed = (a.queries_completed - b.queries_completed) as f64;
    let executed = completed - hits - index_only - coalesced;
    m.add(
        "service.lanes_per_batch",
        ratio(executed, (a.batches_dispatched - b.batches_dispatched) as f64),
        "lanes",
    );
    m.add("service.retries", (a.retries - b.retries) as f64, "count");

    // Router.
    let (rb, ra) = l.router;
    let routed: Vec<f64> = ra.routed.iter().zip(&rb.routed).map(|(x, y)| (x - y) as f64).collect();
    let total: f64 = routed.iter().sum();
    m.add("router.locality_ratio", ratio((ra.locality - rb.locality) as f64, total), "ratio");
    m.add("router.heat_ratio", ratio((ra.heat_steered - rb.heat_steered) as f64, total), "ratio");
    let busiest = routed.iter().copied().fold(0.0, f64::max);
    m.add("router.balance", ratio(busiest, total / routed.len().max(1) as f64), "ratio");

    // Cache and index.
    m.add("cache.hit_ratio", ratio(hits, queries), "ratio");
    m.add("cache.coalesced_ratio", ratio(coalesced, queries), "ratio");
    m.add(
        "cache.evictions_per_query",
        ratio((a.cache_evictions - b.cache_evictions) as f64, queries),
        "count",
    );
    m.add("index.only_ratio", ratio(index_only, queries), "ratio");
    let build_ms = sorted_in(l.builds.iter().map(|(s, e)| *e - *s), 1e-3);
    m.add("index.build_ms", quantile(&build_ms, 0.5), "ms");
    m.add("index.bytes", fs.index_bytes as f64, "B");

    // Engine and comm: replay the run's distinct sources in lane-width
    // chunks on the serving engine's base snapshot.
    let distinct: BTreeSet<u64> = l.rec.answers.list.iter().map(|a| a.source).collect();
    let replay: Vec<u64> = distinct.into_iter().take(REPLAY_CHUNKS * lanes).collect();
    let mut batch_ms = Vec::new();
    let (mut scans, mut steps, mut msgs, mut bytes, mut lanes_run) = (0u64, 0u64, 0u64, 0u64, 0);
    let (mut busy, mut machine_wall) = (0f64, 0f64);
    for chunk in replay.chunks(lanes.max(1)) {
        let id = tracer.next_id();
        let t0 = Instant::now();
        let r = engine
            .run_traversal_batch(chunk, &vec![K; chunk.len()])
            .expect("replayed sources are in range");
        tracer.root("engine.batch", id, t0, Instant::now());
        batch_ms.push(r.exec_time.as_secs_f64() * 1e3);
        scans += r.scans;
        steps += u64::from(r.supersteps);
        busy += r.per_machine_busy.iter().map(Duration::as_secs_f64).sum::<f64>();
        machine_wall += r.exec_time.as_secs_f64() * r.per_machine_busy.len() as f64;
        msgs += r.traffic.total_msgs();
        bytes += r.traffic.total_bytes();
        lanes_run += r.lanes;
    }
    let replayed = lanes_run as f64;
    m.add("engine.batch_p50_ms", median(&batch_ms), "ms");
    m.add("engine.scans_per_query", ratio(scans as f64, replayed), "count");
    m.add("engine.supersteps_per_batch", ratio(steps as f64, batch_ms.len() as f64), "count");
    let busy_share = ratio(busy, machine_wall);
    m.add("engine.busy_share", busy_share, "ratio");
    m.add("engine.barrier_wait_share", 1.0 - busy_share, "ratio");
    m.add("comm.msgs_per_query", ratio(msgs as f64, replayed), "count");
    m.add("comm.bytes_per_query", ratio(bytes as f64, replayed), "B");

    // Mutation and durability.
    let ok_commits: Vec<&CommitRec> = l.commits.iter().filter(|c| c.result.is_ok()).collect();
    let apply_us = sorted_in(l.commits.iter().map(|c| c.apply.1 - c.apply.0), 1e-6);
    m.add("mutation.apply_p50_us", quantile(&apply_us, 0.5), "us");
    let builds_in = |c: &CommitRec| {
        let (c0, c1) = c.commit;
        l.builds.iter().filter(move |(s, e)| *s >= c0 && *e <= c1)
    };
    let nonindex_ms = sorted_in(
        ok_commits.iter().map(|c| {
            let inside: Duration = builds_in(c).map(|(s, e)| *e - *s).sum();
            (c.commit.1 - c.commit.0).saturating_sub(inside)
        }),
        1e-3,
    );
    m.add("mutation.commit_nonindex_ms", quantile(&nonindex_ms, 0.5), "ms");
    let stalled = sorted_in(
        recs.iter()
            .filter(|r| {
                let (s, d) = (l.rec.submitted_at(r), l.rec.done_at(r));
                l.commits.iter().any(|c| s < c.commit.1 && d > c.commit.0)
            })
            .map(QueryRec::latency),
        1e-3,
    );
    m.add("mutation.read_stall_p99_ms", quantile(&stalled, 0.99), "ms");
    m.add("mutation.folds", (fs.epoch_folds - b.epoch_folds) as f64, "count");
    let updates = (fs.updates_applied - b.updates_applied) as f64;
    m.add(
        "durability.wal_bytes_per_update",
        ratio((fs.wal_bytes - b.wal_bytes) as f64, updates),
        "B",
    );
    m.add(
        "durability.snapshot_bytes_per_commit",
        ratio(
            (fs.snapshot_bytes - b.snapshot_bytes) as f64,
            (fs.epoch_commits - b.epoch_commits) as f64,
        ),
        "B",
    );
    let (recover_ms, replayed_wal) = l.recovery.unwrap_or((0.0, 0));
    m.add("durability.recover_ms", recover_ms, "ms");
    m.add("durability.wal_replayed", replayed_wal as f64, "count");

    // Commit spans, with each index rebuild under the commit it ran in.
    for c in l.commits {
        let id = tracer.next_id();
        tracer.root("apply_updates", id, c.apply.0, c.apply.1);
        let root = tracer.root("commit", id, c.commit.0, c.commit.1);
        for &(s, e) in builds_in(c) {
            tracer.push(Span::child("index.build", id, root, s, e));
        }
    }

    // Tracing overhead: odd seconds were traced, even seconds not.
    let traced_secs = (l.seconds / 2) as f64;
    let count = |traced: bool| recs.iter().filter(|r| r.answered() && r.traced == traced).count();
    let qps_traced = ratio(count(true) as f64, traced_secs);
    let qps_untraced = ratio(count(false) as f64, l.seconds as f64 - traced_secs);
    m.add("trace.qps_traced", qps_traced, "1/s");
    m.add("trace.qps_untraced", qps_untraced, "1/s");
    m.add("trace.overhead", 1.0 - ratio(qps_traced, qps_untraced), "ratio");

    // How the query path accounts for the client's time.
    let self_times = tracer.self_times();
    let traced_q = recs.iter().filter(|r| r.traced).count() as f64;
    let per_q =
        |name: &str| ratio(self_times.get(name).map_or(0.0, |d| d.0.as_secs_f64() * 1e3), traced_q);
    m.add("trace.self.service.submit_ms", per_q("service.submit"), "ms");
    m.add("trace.self.reply.wait_ms", per_q("reply.wait"), "ms");
    let listed: Vec<String> = self_times
        .iter()
        .map(|(n, (d, c))| {
            format!("\"{n}\": {{\"self_ms\": {:.3}, \"spans\": {c}}}", d.as_secs_f64() * 1e3)
        })
        .collect();
    eprintln!("servebench self times: {{{}}}", listed.join(", "));
    let waits: f64 = recs.iter().map(|r| (r.latency() - r.submit_time()).as_secs_f64()).sum();
    let sum_s = |xs_ms: &[f64]| xs_ms.iter().sum::<f64>() * 1e-3;
    m.add("trace.wait.admission_share", ratio(sum_s(&wait), waits), "ratio");
    m.add("trace.wait.exec_share", ratio(sum_s(&exec), waits), "ratio");
    // A slot's time is its queries' latencies plus the pause after each.
    let latency_sum: f64 = recs.iter().map(|r| (r.latency() + l.think).as_secs_f64()).sum();
    let wall = recs
        .iter()
        .map(|r| l.rec.done_at(r))
        .max()
        .map_or(0.0, |e| e.saturating_duration_since(l.start).as_secs_f64());
    m.add("trace.concurrency_share", ratio(latency_sum, OUTSTANDING as f64 * wall), "ratio");
}
