//! `obs::prof` — a hand-rolled scoped phase profiler.
//!
//! Answers "where does wall-clock actually go" for the daemon and the
//! campaign runner without any external profiler: code brackets a phase
//! with [`scope`], nested scopes form semicolon-joined paths
//! (`campaign.execute;cell.run`), and exit attributes *self time*
//! (total minus time spent in child scopes) to the path. The aggregate
//! exports [`collapsed`] — the collapsed-stack format every standard
//! flamegraph tool consumes (`path self_ns` per line).
//!
//! Same discipline as the rest of the crate: disabled is the default and
//! costs one relaxed load per scope ([`enabled`] gates before any clock
//! read, which goes through [`crate::clock`] — the lint's single
//! sanctioned wall-clock site); enabling is a run-time switch
//! ([`set_enabled`]), not a rebuild. Per-thread stacks are thread-local,
//! so the only shared state is the aggregate table, locked once per scope
//! *exit*. Most profiled phases are coarse (campaign phases, supervisor
//! steps). The exception is the injection's own `inject.apply` /
//! `inject.walk` / `inject.metric` split, up to three exits per injection:
//! those scopes are opened only when timing is on too, so they cost nothing
//! unless a run asked for a profile.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::clock;

static PROF: AtomicBool = AtomicBool::new(false);

/// Whether profiling is on. One relaxed load — the gate every [`scope`]
/// checks first.
#[inline]
pub fn enabled() -> bool {
    PROF.load(Ordering::Relaxed)
}

/// Turns the profiler on or off (`fidelity --profile <file>` and the
/// daemon's self-profile both flip this at startup).
pub fn set_enabled(on: bool) {
    PROF.store(on, Ordering::Relaxed);
}

/// Aggregated statistics for one scope path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStat {
    /// Times the scope exited.
    pub count: u64,
    /// Nanoseconds spent in the scope excluding child scopes.
    pub self_ns: u64,
    /// Nanoseconds spent in the scope including child scopes.
    pub total_ns: u64,
}

fn table() -> &'static Mutex<BTreeMap<String, PathStat>> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, PathStat>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

struct Frame {
    start_ns: u64,
    child_ns: u64,
    /// Length of the thread's path string up to and including this frame.
    path_len: usize,
}

struct Stack {
    path: String,
    frames: Vec<Frame>,
}

thread_local! {
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack {
            path: String::new(),
            frames: Vec::new(),
        })
    };
}

/// Guard returned by [`scope`]; attributes the elapsed time on drop.
/// Inert (no clock read, no lock) when profiling was off at entry.
#[derive(Debug)]
pub struct ProfGuard {
    armed: bool,
}

/// Enters a profiled scope: `let _p = prof::scope("campaign.execute");`.
///
/// Nested scopes extend the current thread's semicolon-joined path. The
/// guard never panics: a re-entrant borrow (e.g. from a destructor running
/// inside the profiler itself) degrades to an inert guard.
pub fn scope(name: &'static str) -> ProfGuard {
    if !enabled() {
        return ProfGuard { armed: false };
    }
    let armed = STACK.with(|s| match s.try_borrow_mut() {
        Ok(mut st) => {
            if !st.path.is_empty() {
                st.path.push(';');
            }
            st.path.push_str(name);
            let path_len = st.path.len();
            st.frames.push(Frame {
                start_ns: clock::since_epoch_ns(),
                child_ns: 0,
                path_len,
            });
            true
        }
        Err(_) => false,
    });
    ProfGuard { armed }
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_ns = clock::since_epoch_ns();
        STACK.with(|s| {
            let Ok(mut st) = s.try_borrow_mut() else {
                return;
            };
            let Some(frame) = st.frames.pop() else {
                return;
            };
            let total = end_ns.saturating_sub(frame.start_ns);
            let self_ns = total.saturating_sub(frame.child_ns);
            st.path.truncate(frame.path_len);
            {
                let mut t = table().lock().unwrap_or_else(PoisonError::into_inner);
                let stat = t.entry(st.path.clone()).or_default();
                stat.count = stat.count.saturating_add(1);
                stat.self_ns = stat.self_ns.saturating_add(self_ns);
                stat.total_ns = stat.total_ns.saturating_add(total);
            }
            let parent_len = st.frames.last().map_or(0, |f| f.path_len);
            st.path.truncate(parent_len);
            if let Some(parent) = st.frames.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total);
            }
        });
    }
}

/// Point-in-time copy of the aggregate table, sorted by path.
pub fn snapshot() -> Vec<(String, PathStat)> {
    let t = table().lock().unwrap_or_else(PoisonError::into_inner);
    t.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Clears the aggregate table (the per-thread stacks are untouched, so
/// open scopes still attribute on exit).
pub fn reset() {
    let mut t = table().lock().unwrap_or_else(PoisonError::into_inner);
    t.clear();
}

/// Exports the aggregate in collapsed-stack format: one
/// `path;sub;leaf <self_ns>` line per path, sorted, zero-self paths
/// skipped. Feed straight into `flamegraph.pl` / `inferno-flamegraph`.
pub fn collapsed() -> String {
    let mut out = String::new();
    for (path, stat) in snapshot() {
        if stat.self_ns > 0 {
            let _ = writeln!(out, "{path} {}", stat.self_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        // FNV-1a over the counter: real work the optimizer cannot remove,
        // a few ns per iteration.
        let mut h = 0xcbf29ce484222325u64;
        for i in 0..iters {
            h = (h ^ i).wrapping_mul(0x100000001b3);
            std::hint::black_box(h);
        }
        h
    }

    // The profiler's flag and table are process-global, so all prof tests
    // share one `#[test]` (same pattern as the facade test in lib.rs) to
    // avoid cross-test interference under the parallel runner.
    #[test]
    fn profiler_gates_attributes_and_exports() {
        // --- Disabled: inert guards, no entries, bounded cost. ---
        assert!(!enabled());
        {
            let _p = scope("prof.test.disabled");
        }
        assert!(snapshot().iter().all(|(p, _)| p != "prof.test.disabled"));

        // Overhead: a disabled scope must cost one load + branch, not a
        // clock read. Best-of-N comparison of a work loop against the same
        // loop with a disabled scope per iteration; a regression that reads
        // the clock (or takes a lock) per call multiplies the iteration
        // cost and trips the generous 3x bound. (The precise <2% end-to-end
        // budget is tracked by the `telemetry_overhead` bench group.)
        const ITERS: u64 = 200_000;
        let best = |f: &dyn Fn() -> u64| {
            (0..5)
                .map(|_| {
                    let sw = clock::Stopwatch::start();
                    std::hint::black_box(f());
                    sw.elapsed_ns().unwrap_or(u64::MAX)
                })
                .min()
                .unwrap_or(u64::MAX)
        };
        let bare = best(&|| spin(ITERS));
        let gated = best(&|| {
            let mut acc = 0u64;
            for i in 0..ITERS {
                let _p = scope("prof.test.overhead");
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc.wrapping_add(spin(ITERS))
        });
        assert!(
            gated < bare.saturating_mul(3).max(bare + 10_000_000),
            "disabled prof::scope too expensive: bare={bare}ns gated={gated}ns"
        );

        // --- Enabled: nesting builds paths, self time excludes children. ---
        set_enabled(true);
        {
            let _outer = scope("prof.test.outer");
            std::hint::black_box(spin(20_000));
            {
                let _inner = scope("prof.test.inner");
                std::hint::black_box(spin(20_000));
            }
        }
        set_enabled(false);

        let snap = snapshot();
        let get = |p: &str| {
            snap.iter()
                .find(|(k, _)| k == p)
                .map_or_else(|| panic!("missing path {p}"), |(_, v)| *v)
        };
        let outer = get("prof.test.outer");
        let inner = get("prof.test.outer;prof.test.inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns <= outer.total_ns.saturating_sub(inner.total_ns) + outer.total_ns / 2,
            "outer self time must exclude the inner scope"
        );

        // --- Collapsed export: one line per path, value = self_ns. ---
        let collapsed = collapsed();
        let line = collapsed
            .lines()
            .find(|l| l.starts_with("prof.test.outer;prof.test.inner "))
            .expect("nested path exported");
        let val: u64 = line
            .rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("collapsed value parses");
        assert_eq!(val, inner.self_ns);

        // --- Guard dropped after disable still attributes (armed at entry). ---
        set_enabled(true);
        let g = scope("prof.test.straddle");
        set_enabled(false);
        drop(g);
        assert!(snapshot().iter().any(|(p, _)| p == "prof.test.straddle"));
    }
}
