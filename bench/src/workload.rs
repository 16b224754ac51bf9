//! What every workload provides, and the pieces they share.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::api::Coded;
use crate::gen::Scale;
use crate::reference::RefRows;
use crate::stats::{median, Op};
use crate::trace::Trace;

/// Per-layer metric values by name; names not set by a workload are
/// reported as 0 — the layer did no work there.
pub type Layers = BTreeMap<&'static str, f64>;

/// Correctness checks made before (and, cheaply, during) timing.
#[derive(Debug, Default)]
pub struct Gate {
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Rows and codes equal.
    pub fn same(&mut self, what: &str, got: &Coded, want: &Coded) {
        self.check(got == want, || {
            format!(
                "{what}: results differ ({} vs {} rows, rows equal: {}, codes equal: {})",
                got.rows(),
                want.rows(),
                got.values == want.values,
                got.codes == want.codes
            )
        });
    }

    /// Row values equal the naive reference.
    pub fn matches_reference(&mut self, what: &str, got: &Coded, want: &RefRows) {
        let ok = got.rows() == want.len() && got.iter().zip(want).all(|(g, w)| g == &w[..]);
        self.check(ok, || {
            format!(
                "{what}: differs from the reference ({} vs {} rows)",
                got.rows(),
                want.len()
            )
        });
    }
}

/// The timed operations of one run, per client, and how many of them
/// failed their check.
#[derive(Debug, Default)]
pub struct Measured {
    pub ops: Vec<Vec<Op>>,
    pub failed: u64,
}

impl Measured {
    pub fn attempted(&self) -> u64 {
        self.ops.iter().map(|c| c.len() as u64).sum()
    }

    /// Add the operations of a later stretch of the same loop, client
    /// by client.
    pub fn append(&mut self, later: Measured) {
        self.failed += later.failed;
        if self.ops.len() < later.ops.len() {
            self.ops.resize(later.ops.len(), Vec::new());
        }
        for (all, client) in self.ops.iter_mut().zip(later.ops) {
            all.extend(client);
        }
    }
}

/// The operations a traced run timed: the plain ones it interleaved and
/// the same calls made with their spans recorded.  Their difference is
/// the tracing overhead.
#[derive(Debug, Default)]
pub struct TracedOps {
    pub untraced: Measured,
    pub traced: Measured,
}

/// What a traced run adds to the trace file besides spans.
pub type Notes = Vec<(String, String)>;

pub trait Workload: Sized {
    /// Generate the inputs from `seed`, build tables, boot what needs
    /// booting, pass the correctness gate, warm up.
    fn setup(seed: u64, scale: Scale, gate: &mut Gate) -> Self;

    /// Rows one operation stands for in `rows_per_s`.
    fn unit_rows(&self) -> u64;

    /// The untraced timed loop.
    fn measure(&mut self, budget: Duration) -> Measured;

    /// The traced run: spans around each call into the engine, the
    /// decomposed and differenced probes, and the per-layer values.
    fn trace(
        &mut self,
        budget: Duration,
        trace: &mut Trace,
        layers: &mut Layers,
        notes: &mut Notes,
        gate: &mut Gate,
    ) -> TracedOps;

    fn teardown(self) {}
}

/// Operations run after the gate and before timing, so lazy set-up
/// (page faults, allocator growth, connection set-up) is paid once.
pub const WARMUP_OPS: usize = 3;

/// Run `op` until `budget` has passed (at least once).  `op` times
/// itself, so per-iteration input copies and result checks stay outside
/// the timed region.
pub fn timed_loop(budget: Duration, mut op: impl FnMut() -> (Op, bool)) -> Measured {
    let deadline = Instant::now() + budget;
    let mut ops = Vec::new();
    let mut failed = 0;
    loop {
        let (o, ok) = op();
        ops.push(o);
        failed += u64::from(!ok);
        if Instant::now() >= deadline {
            break;
        }
    }
    Measured {
        ops: vec![ops],
        failed,
    }
}

/// The traced run's loop: until `budget` has passed (at least once), one
/// untraced operation, then `pass(id)`: the same operation with its
/// spans (whose record it returns) and the probes of pass `id`.
pub fn traced_passes(
    budget: Duration,
    mut untraced_op: impl FnMut() -> (Op, bool),
    mut pass: impl FnMut(u64) -> (Op, bool),
) -> TracedOps {
    let mut traced = Measured {
        ops: vec![Vec::new()],
        failed: 0,
    };
    let mut id = 0;
    let untraced = timed_loop(budget, || {
        id += 1;
        let result = untraced_op();
        let (op, ok) = pass(id);
        traced.ops[0].push(op);
        traced.failed += u64::from(!ok);
        result
    });
    TracedOps { untraced, traced }
}

/// Time one call: the result, and the operation record of a call whose
/// first row arrives with its last (a blocking library call).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Op, Instant, Instant) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let ns = (end - start).as_nanos() as u64;
    (
        out,
        Op {
            total_ns: ns,
            first_row_ns: ns,
        },
        start,
        end,
    )
}

/// Median of the pairwise differences `a[i] - b[i]`: the differenced
/// layers compare calls made back to back in the same pass.
pub fn paired_diff(a: &[f64], b: &[f64]) -> f64 {
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    median(&d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_checks_and_keeps_failures() {
        let mut g = Gate::default();
        let a = Coded {
            width: 1,
            values: vec![1, 2],
            codes: vec![9, 9],
        };
        let mut b = a.clone();
        g.same("x", &a, &b);
        b.codes[1] = 8;
        g.same("y", &a, &b);
        g.matches_reference("z", &a, &vec![vec![1], vec![2]]);
        g.matches_reference("w", &a, &vec![vec![1]]);
        assert_eq!(g.checks, 4);
        assert_eq!(g.failures.len(), 2);
        assert!(g.failures[0].starts_with("y:"));
    }

    #[test]
    fn timed_loop_runs_at_least_once_and_counts_failures() {
        let mut n = 0;
        let m = timed_loop(Duration::ZERO, || {
            n += 1;
            let (_, op, _, _) = timed(|| ());
            (op, false)
        });
        assert_eq!((m.attempted(), m.failed, n), (1, 1, 1));
    }

    #[test]
    fn paired_diff_is_a_median_of_differences() {
        assert_eq!(paired_diff(&[5.0, 9.0, 7.0], &[1.0, 1.0, 1.0]), 6.0);
    }
}
