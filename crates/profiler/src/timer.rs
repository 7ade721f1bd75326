//! Scoped category timers.
//!
//! Each thread tracks a single *current* category plus a stack of suspended
//! outer categories. [`enter`] attributes the time elapsed since the previous
//! switch to the previous category and makes the new category current; when
//! the returned [`Guard`] drops, the elapsed slice is attributed to the inner
//! category and the outer one resumes. Outside any scope, time is simply not
//! attributed (the harness brackets measurement windows with [`reset`] /
//! [`take_tally`] and computes unaccounted time as `wall * threads - total`).
//!
//! Scopes record only inside a measurement window: [`reset`] arms the
//! calling thread and [`take_tally`] disarms it. On a thread that is not
//! armed, [`enter`] reads one thread-local flag and returns an inert guard
//! — no clock read, no stack push — so a transaction pays for profiling
//! only while someone is measuring.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::categories::Category;
use crate::tally::Tally;

struct ThreadProf {
    tally: Tally,
    /// Current category; `None` when outside any profiled scope.
    current: Option<Category>,
    /// Instant of the last category switch.
    last: Instant,
    /// Suspended outer categories.
    stack: Vec<Option<Category>>,
}

impl ThreadProf {
    fn new() -> Self {
        ThreadProf {
            tally: Tally::new(),
            current: None,
            last: Instant::now(),
            stack: Vec::with_capacity(16),
        }
    }

    #[inline]
    fn charge_elapsed(&mut self, now: Instant) {
        if let Some(cat) = self.current {
            let dt = now.duration_since(self.last).as_nanos() as u64;
            self.tally.add(cat, dt);
        }
        self.last = now;
    }
}

thread_local! {
    /// Whether this thread is inside a measurement window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PROF: RefCell<ThreadProf> = RefCell::new(ThreadProf::new());
}

/// RAII scope: restores the enclosing category (and charges the inner one)
/// on drop. A guard opened on a thread that was not armed is inert.
#[must_use = "dropping the guard immediately ends the profiled scope"]
pub struct Guard {
    /// Whether [`enter`] pushed a stack entry that drop must pop.
    pushed: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Begin attributing time to `cat` until the returned guard drops. Records
/// nothing unless the thread is armed by [`reset`].
#[inline]
pub fn enter(cat: Category) -> Guard {
    let pushed = ARMED.get();
    if pushed {
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            let now = Instant::now();
            p.charge_elapsed(now);
            let prev = p.current;
            p.stack.push(prev);
            p.current = Some(cat);
        });
    }
    Guard {
        pushed,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        // A guard opened while armed pops its entry even if the window
        // closed meanwhile, so the stack stays balanced for the next one.
        if !self.pushed {
            return;
        }
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            let now = Instant::now();
            p.charge_elapsed(now);
            p.current = p.stack.pop().unwrap_or(None);
        });
    }
}

/// Zero this thread's tally, restart the clock and arm the thread. Call at
/// the start of a measurement window.
pub fn reset() {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.tally = Tally::new();
        p.last = Instant::now();
    });
    ARMED.set(true);
}

/// Return this thread's tally (including time charged so far to the current
/// open scope), reset it and disarm the thread. Call at the end of a
/// measurement window.
pub fn take_tally() -> Tally {
    ARMED.set(false);
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let now = Instant::now();
        p.charge_elapsed(now);
        std::mem::take(&mut p.tally)
    })
}

/// Copy this thread's tally without resetting it.
pub fn snapshot_tally() -> Tally {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let now = Instant::now();
        p.charge_elapsed(now);
        p.tally.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categories::Component;

    /// Open scopes on this thread (stack depth).
    fn depth() -> usize {
        PROF.with(|p| p.borrow().stack.len())
    }

    #[test]
    fn unscoped_time_is_not_attributed() {
        reset();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t = take_tally();
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn deep_nesting_restores_correctly() {
        reset();
        let g1 = enter(Category::Work(Component::Application));
        let g2 = enter(Category::Work(Component::LockManager));
        let g3 = enter(Category::LatchWait(Component::LockManager));
        drop(g3);
        drop(g2);
        drop(g1);
        // After all guards drop, further time is unattributed.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let t = take_tally();
        let attributed = t.total();
        // All three categories appear (may be tiny but nonzero is not
        // guaranteed at ns resolution for empty scopes, so just check sanity).
        assert!(attributed < 1_000_000, "attributed = {attributed}");
    }

    #[test]
    fn guard_drop_order_mismatch_is_tolerated() {
        // Dropping guards out of order is a programming error but must not
        // panic or corrupt the stack beyond the current scopes.
        reset();
        let g1 = enter(Category::Work(Component::Application));
        let g2 = enter(Category::Work(Component::Storage));
        drop(g1);
        drop(g2);
        let _ = take_tally();
    }

    #[test]
    fn unarmed_scopes_record_nothing_and_leave_no_trace() {
        let _ = take_tally();
        {
            let _outer = enter(Category::Work(Component::Application));
            let _inner = enter(Category::LatchWait(Component::LockManager));
            assert_eq!(depth(), 0, "an unarmed scope pushes nothing");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(take_tally().total(), 0);
        reset();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(depth(), 0);
        assert_eq!(take_tally().total(), 0, "no current category leaked");
    }

    #[test]
    fn armed_guard_dropped_after_take_keeps_the_stack_balanced() {
        reset();
        let g = enter(Category::Work(Component::Storage));
        assert_eq!(depth(), 1);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let first = take_tally();
        assert!(first.get(Category::Work(Component::Storage)) > 0);
        drop(g);
        assert_eq!(depth(), 0, "the guard popped its entry");
        reset();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(take_tally().total(), 0, "the next window starts clean");
    }

    #[test]
    fn unarmed_guard_dropped_after_reset_stays_inert() {
        let _ = take_tally();
        let stale = enter(Category::Work(Component::Application));
        reset();
        let live = enter(Category::Work(Component::LogManager));
        assert_eq!(depth(), 1, "only the armed scope is on the stack");
        drop(stale);
        assert_eq!(depth(), 1, "the inert guard popped nothing");
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(live);
        assert_eq!(depth(), 0);
        let t = take_tally();
        assert!(t.get(Category::Work(Component::LogManager)) > 1_000_000);
        assert_eq!(t.get(Category::Work(Component::Application)), 0);
    }
}
