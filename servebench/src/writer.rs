//! The writer: apply-and-commit cycles against a running group.

use crate::client::{error_kind, Stop};
use crate::inputs;
use cgraph_core::{EdgeUpdate, ServiceGroup};
use std::time::{Duration, Instant};

/// One writer cycle: `apply_updates`, then `commit_epoch`.
pub struct CommitRec {
    /// Start and end of the `apply_updates` call.
    pub apply: (Instant, Instant),
    /// Start and end of the `commit_epoch` call (empty when the apply
    /// failed and no commit was attempted).
    pub commit: (Instant, Instant),
    /// The epoch the commit returned, or the error kind of the failed
    /// apply or commit.
    pub result: Result<u64, &'static str>,
    /// Whether this batch's apply succeeded.
    pub applied: bool,
}

impl CommitRec {
    /// The failure kind, if the cycle failed.
    pub fn failure(&self) -> Option<&'static str> {
        self.result.err()
    }
}

/// The writer's closed loop: apply the next batch, commit it, pause
/// `think`; repeat until `stop`.
pub fn write_loop(
    group: &ServiceGroup,
    batches: &[Vec<EdgeUpdate>],
    stop: Stop,
    think: Duration,
) -> Vec<CommitRec> {
    let mut out = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        match stop {
            Stop::At(t) if Instant::now() >= t => break,
            Stop::Count(n) if i >= n => break,
            _ => {}
        }
        let a0 = Instant::now();
        let applied = group.apply_updates(inputs::to_batch(batch));
        let a1 = Instant::now();
        let rec = match applied {
            Err(e) => CommitRec {
                apply: (a0, a1),
                commit: (a1, a1),
                result: Err(error_kind(&e)),
                applied: false,
            },
            Ok(()) => {
                let c0 = Instant::now();
                let r = group.commit_epoch();
                let c1 = Instant::now();
                CommitRec {
                    apply: (a0, a1),
                    commit: (c0, c1),
                    result: r.map_err(|e| error_kind(&e)),
                    applied: true,
                }
            }
        };
        out.push(rec);
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    out
}

/// Latencies of the successful commits, in ms.
pub fn ok_commit_ms(commits: &[CommitRec]) -> Vec<f64> {
    commits
        .iter()
        .filter(|c| c.result.is_ok())
        .map(|c| (c.commit.1 - c.commit.0).as_secs_f64() * 1e3)
        .collect()
}
