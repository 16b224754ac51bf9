//! Deterministic fault injection for the execution layer.
//!
//! A process-wide registry of *injection points* the engine consults at
//! the places faults occur in production: spill-device reads and writes,
//! worker thread bodies, and exchange-channel consumers.  Tests install
//! a seeded [`FaultConfig`]; the engine then fails deterministically at
//! the configured points, and `tests/fault_injection.rs` asserts the
//! system-wide invariant: **every injected fault yields either a clean
//! typed [`ExecError`] or byte-identical output — never truncation,
//! deadlock, or wrong rows.**
//!
//! Cost discipline: when no config is installed (the production state)
//! every probe is a single relaxed atomic load and nothing else — no
//! lock, no hash, no branch on per-point state.  Determinism: firing
//! decisions hash `(seed, point, nth-probe-of-that-point)` with
//! SplitMix64, so a given seed replays the same decisions for the same
//! probe sequence.  (Under multi-threaded execution the *interleaving*
//! of probes may vary run to run; the invariant above holds regardless
//! of which worker a fault lands on.)
//!
//! The registry is global, so tests that install faults must serialize
//! with each other (the fault-injection suite shares one lock) and clear
//! the registry when done — [`install`] returns an RAII [`FaultGuard`]
//! for exactly that.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::ctx::ExecError;

/// Places the engine consults the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultPoint {
    /// A spill device is about to write a run — firing fails the write
    /// with [`ExecError::SpillIo`].
    SpillWrite,
    /// A spill device is about to read a run back — firing fails the
    /// read with [`ExecError::SpillIo`].
    SpillRead,
    /// A file spill device has encoded a run — firing flips one byte of
    /// the encoding, which the spill frame's checksum detects on
    /// read-back as [`ExecError::SpillCorruption`].
    SpillCorrupt,
    /// A parallel worker (exchange producer, partition worker, merge
    /// feeder) is starting — firing panics the worker, exercising panic
    /// containment and the `Err` item that carries it down the channel.
    WorkerPanic,
    /// An exchange consumer — or, under a `QueryCtx`, any operator
    /// boundary of the executor — is about to receive a batch: firing
    /// sleeps the consumer briefly, exercising bounded-channel
    /// backpressure and letting tests cross a deadline mid-plan.
    SlowConsumer,
}

const POINT_COUNT: usize = 5;

impl FaultPoint {
    fn index(self) -> usize {
        match self {
            FaultPoint::SpillWrite => 0,
            FaultPoint::SpillRead => 1,
            FaultPoint::SpillCorrupt => 2,
            FaultPoint::WorkerPanic => 3,
            FaultPoint::SlowConsumer => 4,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Rule {
    /// Firing probability in thousandths (1000 = always).
    permille: u32,
    /// Stop firing after this many hits (`None` = unlimited).
    max_fires: Option<u64>,
}

/// A seeded fault plan: which points fire, with what probability, how
/// many times.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    seed: u64,
    rules: [Option<Rule>; POINT_COUNT],
}

impl FaultConfig {
    /// An empty plan (no point fires) with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            rules: [None; POINT_COUNT],
        }
    }

    /// Fire `point` with probability `permille`/1000 on every probe.
    pub fn with(mut self, point: FaultPoint, permille: u32) -> Self {
        self.rules[point.index()] = Some(Rule {
            permille: permille.min(1000),
            max_fires: None,
        });
        self
    }

    /// Like [`FaultConfig::with`], but stop after `max_fires` hits.
    pub fn with_limited(mut self, point: FaultPoint, permille: u32, max_fires: u64) -> Self {
        self.rules[point.index()] = Some(Rule {
            permille: permille.min(1000),
            max_fires: Some(max_fires),
        });
        self
    }

    /// Fire `point` on every probe.
    pub fn always(self, point: FaultPoint) -> Self {
        self.with(point, 1000)
    }

    /// Fire `point` exactly once.
    pub fn once(self, point: FaultPoint) -> Self {
        self.with_limited(point, 1000, 1)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct RuleState {
    permille: u32,
    max_fires: Option<u64>,
    fired: u64,
    probes: u64,
}

struct Registry {
    seed: u64,
    rules: [Option<RuleState>; POINT_COUNT],
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// Clears the installed fault plan when dropped, so a panicking test
/// cannot leave faults armed for its successors.
#[must_use = "dropping the guard immediately clears the fault plan"]
pub struct FaultGuard {
    _private: (),
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Install a fault plan process-wide, replacing any previous one.  The
/// returned guard clears the plan on drop.
pub fn install(config: FaultConfig) -> FaultGuard {
    let mut registry = lock_registry();
    *registry = Some(Registry {
        seed: config.seed,
        rules: config.rules.map(|r| {
            r.map(|rule| RuleState {
                permille: rule.permille,
                max_fires: rule.max_fires,
                fired: 0,
                probes: 0,
            })
        }),
    });
    ENABLED.store(true, Ordering::Release);
    FaultGuard { _private: () }
}

/// Remove the installed fault plan; all probes return to the zero-cost
/// disabled path.
pub fn clear() {
    let mut registry = lock_registry();
    ENABLED.store(false, Ordering::Release);
    *registry = None;
}

/// Whether a fault plan is currently installed.
pub fn enabled() -> bool {
    // ovc-lint: allow(relaxed-ordering-audit) -- test-only toggle; install/clear use Release and the registry mutex is the real fence
    ENABLED.load(Ordering::Relaxed)
}

fn lock_registry() -> std::sync::MutexGuard<'static, Option<Registry>> {
    // A panicking prober cannot leave the registry logically corrupt —
    // all state is plain counters — so poisoning is safe to ignore.
    match REGISTRY.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Probe `point`: true when the installed plan says this occurrence
/// fires.  One relaxed atomic load when nothing is installed.
pub fn should_fire(point: FaultPoint) -> bool {
    // ovc-lint: allow(relaxed-ordering-audit) -- zero-cost disabled probe; a stale read skips at most one fault occurrence, and plans are installed before threads start
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    let mut registry = lock_registry();
    let Some(registry) = registry.as_mut() else {
        return false;
    };
    let seed = registry.seed;
    let Some(rule) = registry.rules[point.index()].as_mut() else {
        return false;
    };
    if let Some(max) = rule.max_fires {
        if rule.fired >= max {
            return false;
        }
    }
    let nth = rule.probes;
    rule.probes += 1;
    let h = splitmix64(
        seed ^ splitmix64(point.index() as u64) ^ nth.wrapping_mul(0x2545_f491_4f6c_dd1d),
    );
    let fire = h % 1000 < u64::from(rule.permille);
    if fire {
        rule.fired += 1;
    }
    fire
}

/// Probe [`FaultPoint::WorkerPanic`]; fires as a plain `panic!`, so
/// containment of arbitrary panics is what gets exercised.
pub fn maybe_panic() {
    if should_fire(FaultPoint::WorkerPanic) {
        panic!("injected fault: worker panic");
    }
}

/// Probe [`FaultPoint::SlowConsumer`]; fires as a short sleep.
pub fn maybe_slow_consumer() {
    if should_fire(FaultPoint::SlowConsumer) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Probe a spill I/O point ([`FaultPoint::SpillWrite`] or
/// [`FaultPoint::SpillRead`]); fires as a typed [`ExecError::SpillIo`].
pub fn maybe_spill_io(point: FaultPoint) -> Result<(), ExecError> {
    if should_fire(point) {
        return Err(ExecError::SpillIo {
            detail: format!("injected fault: {point:?}"),
        });
    }
    Ok(())
}

/// Probe [`FaultPoint::SpillCorrupt`]; fires by flipping one
/// deterministically chosen byte of `bytes`.  Returns whether a flip
/// happened.
pub fn maybe_corrupt(bytes: &mut [u8]) -> bool {
    if bytes.is_empty() || !should_fire(FaultPoint::SpillCorrupt) {
        return false;
    }
    let pos = (splitmix64(bytes.len() as u64) as usize) % bytes.len();
    bytes[pos] ^= 0x40;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; these unit tests serialize on one
    // lock so `cargo test`'s parallel threads cannot interleave plans.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_registry_never_fires() {
        let _l = locked();
        clear();
        assert!(!enabled());
        for _ in 0..100 {
            assert!(!should_fire(FaultPoint::SpillWrite));
        }
        assert!(maybe_spill_io(FaultPoint::SpillRead).is_ok());
        let mut bytes = vec![1u8, 2, 3];
        assert!(!maybe_corrupt(&mut bytes));
        assert_eq!(bytes, vec![1, 2, 3]);
    }

    #[test]
    fn always_fires_and_guard_clears() {
        let _l = locked();
        {
            let _guard = install(FaultConfig::new(42).always(FaultPoint::SpillWrite));
            assert!(should_fire(FaultPoint::SpillWrite));
            assert!(maybe_spill_io(FaultPoint::SpillWrite).is_err());
            // Unconfigured points stay quiet.
            assert!(!should_fire(FaultPoint::SpillRead));
        }
        assert!(!enabled());
        assert!(!should_fire(FaultPoint::SpillWrite));
    }

    #[test]
    fn once_fires_exactly_once() {
        let _l = locked();
        let _guard = install(FaultConfig::new(7).once(FaultPoint::SpillRead));
        let fires: usize = (0..50)
            .filter(|_| should_fire(FaultPoint::SpillRead))
            .count();
        assert_eq!(fires, 1);
    }

    #[test]
    fn same_seed_replays_same_decisions() {
        let _l = locked();
        let run = |seed: u64| -> Vec<bool> {
            let _guard = install(FaultConfig::new(seed).with(FaultPoint::SpillWrite, 300));
            (0..64)
                .map(|_| should_fire(FaultPoint::SpillWrite))
                .collect()
        };
        let a = run(123);
        let b = run(123);
        let c = run(456);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should (overwhelmingly) differ");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn corruption_flips_one_byte() {
        let _l = locked();
        let _guard = install(FaultConfig::new(9).always(FaultPoint::SpillCorrupt));
        let original = vec![0u8; 64];
        let mut bytes = original.clone();
        assert!(maybe_corrupt(&mut bytes));
        let diffs = original.iter().zip(&bytes).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }
}
