//! Set-up probes: the extra set-ups of a run, each in a child process.
//!
//! A run sets up several times and reports the median set-up time.
//! All but the last set-up run in children of the benchmark, so each
//! starts like a restarted server, and the measuring process's peak
//! memory holds one set-up rather than the leftovers of several. On the
//! read-only workloads each child also times the probe commits, so the
//! commit latencies pool samples from several processes and moments,
//! each process in the same state: just set up and warmed up.
//!
//! The probe commits run on the `commit_mix` graph and serving
//! configuration, durability included, with no reads: the commit path
//! itself. Commits on the read-only workloads' 1M-edge graph are timed
//! only on traced runs, for the per-layer metrics; almost all of such a
//! commit is one index rebuild over the whole graph, which on a shared
//! host swings by a third between runs with the host's state, more than
//! any bound on an end-to-end metric may allow.

use crate::client::{Stop, ERROR_KINDS};
use crate::inputs::Workload;
use crate::report::PhaseCount;
use crate::trace::Tracer;
use crate::writer::{ok_commit_ms, write_loop, CommitRec};
use crate::{inputs, set_up, tear_down, Args, SetupTimes, PROBE_COMMITS};
use std::collections::BTreeMap;
use std::time::Duration;

/// What a set-up probe reports.
pub struct ProbeOut {
    /// Its set-up times.
    pub times: SetupTimes,
    /// Its warm-up counts.
    pub warmup: PhaseCount,
    /// Latencies of its successful probe commits, in ms.
    pub commit_ms: Vec<f64>,
    /// Its probe-commit counts.
    pub commits: PhaseCount,
}

/// Child side: one set-up and warm-up, then (on the read-only
/// workloads) the commit probe. Returns the line to print: `key=value`
/// tokens after `setup-probe`, failures as `warmup.<kind>=n` and
/// `commit.<kind>=n`.
pub fn child(args: &Args, rep: usize) -> Result<String, String> {
    let (served, t) = set_up(args, rep, &mut Tracer::new(false))?;
    let warmup = PhaseCount::of(served.rec.recs.iter().map(|r| r.outcome.failure()));
    tear_down(served.group, served.data_dir.as_deref());
    let probe =
        if args.workload == Workload::CommitMix { Vec::new() } else { commit_probe(args, rep)? };
    let timed = probe.get(1..).unwrap_or_default();
    let ms: Vec<String> = ok_commit_ms(timed).iter().map(f64::to_string).collect();
    let mut line = format!(
        "setup-probe generate={} build={} start={} total={} warmup={} commits={} commit_ms={}",
        t.generate,
        t.build,
        t.start,
        t.total,
        warmup.attempted,
        probe.len(),
        ms.join(",")
    );
    for (k, n) in &warmup.failed {
        line.push_str(&format!(" warmup.{k}={n}"));
    }
    for (k, n) in &PhaseCount::of(probe.iter().map(|c| c.failure())).failed {
        line.push_str(&format!(" commit.{k}={n}"));
    }
    Ok(line)
}

/// Sets up the `commit_mix` graph and serving configuration with a
/// fresh data directory, then runs the writer's cycles back to back
/// with no reads: one untimed cycle that warms the commit path, then
/// [`PROBE_COMMITS`] timed ones.
fn commit_probe(args: &Args, rep: usize) -> Result<Vec<CommitRec>, String> {
    let small = Args {
        workload: Workload::CommitMix,
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        setup_probe: args.setup_probe,
    };
    let (served, _) = set_up(&small, rep, &mut Tracer::new(false))?;
    let batches = inputs::update_batches(args.seed, &served.edges);
    let commits =
        write_loop(&served.group, &batches, Stop::Count(1 + PROBE_COMMITS), Duration::ZERO);
    tear_down(served.group, served.data_dir.as_deref());
    Ok(commits)
}

/// Parent side: runs this program as set-up probe `rep`, waits for it
/// and parses its line.
pub fn run(args: &Args, rep: usize) -> Result<ProbeOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--setup-probe", &rep.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up probe {rep} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let bad = || format!("set-up probe {rep} printed {line:?}");
    let mut tok = line.split_whitespace();
    if tok.next() != Some("setup-probe") {
        return Err(bad());
    }
    let kv: BTreeMap<&str, &str> =
        tok.map(|t| t.split_once('=').ok_or_else(bad)).collect::<Result<_, _>>()?;
    let num = |k: &str| kv.get(k).and_then(|v| v.parse::<f64>().ok()).ok_or_else(bad);
    let times = SetupTimes {
        generate: num("generate")?,
        build: num("build")?,
        start: num("start")?,
        total: num("total")?,
    };
    let commit_ms: Vec<f64> = kv
        .get("commit_ms")
        .ok_or_else(bad)?
        .split(',')
        .filter(|x| !x.is_empty())
        .map(|x| x.parse::<f64>().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let mut warmup = PhaseCount { attempted: num("warmup")? as u64, ..Default::default() };
    let mut commits = PhaseCount { attempted: num("commits")? as u64, ..Default::default() };
    for (k, v) in &kv {
        let (phase, kind) = match k.split_once('.') {
            Some(("warmup", kind)) => (&mut warmup, kind),
            Some(("commit", kind)) => (&mut commits, kind),
            _ => continue,
        };
        let kind = ERROR_KINDS.iter().find(|&&x| x == kind).ok_or_else(bad)?;
        *phase.failed.entry(kind).or_default() += v.parse::<u64>().map_err(|_| bad())?;
    }
    Ok(ProbeOut { times, warmup, commit_ms, commits })
}
