//! Minimal vendored stand-in for `crossbeam-epoch`, providing the
//! surface this workspace uses: `Collector`, `pin`,
//! `Guard::{defer, defer_destroy}`, `Atomic`, `Owned`, `Shared` and
//! `unprotected`.
//!
//! Reclamation strategy: instead of upstream's per-thread epoch
//! machinery, deferred closures are tagged with a sequence number
//! taken at `defer` time and executed once no *active* guard of the
//! same [`Collector`] was pinned at or before that tag. This is
//! strictly more conservative than epoch-based reclamation (a closure
//! never runs while any guard that could have observed the unlinked
//! pointer is still pinned), at the cost of a mutex per collector on
//! pin/unpin — an acceptable trade for a test/bench substrate whose
//! deferred work is rare (SMO garbage only). The active set is a plain
//! vector whose capacity outlives the guards, so a pin/unpin pair
//! allocates nothing once a collector has seen its peak of guards.
//!
//! As upstream, collectors are independent: a guard of one never
//! delays, and never runs, another's deferred closures. A guard keeps
//! its collector alive, and a collector's last unpin runs everything
//! it still holds, so a data structure that owns a collector and pins
//! only inside its own methods has its deferred closures run on its
//! own threads, with nothing left pending once it is idle (and so
//! nothing when it drops). The free [`pin`] uses one process-wide
//! default collector.

use std::marker::PhantomData;
use std::mem;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

type Deferred = Box<dyn FnOnce() + Send>;

struct Registry {
    /// Next sequence number (guards and defer tags share the space).
    next_seq: u64,
    /// Sequence numbers of currently pinned guards, unordered.
    active: Vec<u64>,
    /// Deferred closures tagged with the sequence current at defer time.
    deferred: Vec<(u64, Deferred)>,
}

impl Registry {
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Remove and return every deferred closure whose tag precedes the
    /// oldest active guard.
    fn take_ready(&mut self) -> Vec<Deferred> {
        if self.deferred.is_empty() {
            return Vec::new(); // the common unpin: nothing was retired
        }
        let min_active = self.active.iter().copied().min().unwrap_or(u64::MAX);
        let (ready, keep): (Vec<_>, Vec<_>) = mem::take(&mut self.deferred)
            .into_iter()
            .partition(|(tag, _)| *tag < min_active);
        self.deferred = keep;
        ready.into_iter().map(|(_, f)| f).collect()
    }
}

struct Global {
    registry: Mutex<Registry>,
}

impl Global {
    fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        f(&mut self.registry.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// An independent garbage collector: guards pinned through it only
/// order, and only run, closures deferred through it.
#[derive(Clone)]
pub struct Collector {
    global: Arc<Global>,
}

impl Collector {
    /// A fresh collector with nothing pinned or deferred.
    pub fn new() -> Self {
        Collector {
            global: Arc::new(Global {
                registry: Mutex::new(Registry {
                    next_seq: 0,
                    active: Vec::new(),
                    deferred: Vec::new(),
                }),
            }),
        }
    }

    /// Pin the current thread in this collector.
    pub fn pin(&self) -> Guard {
        let seq = self.global.with(|reg| {
            let seq = reg.take_seq();
            reg.active.push(seq);
            seq
        });
        Guard {
            pinned: Some((self.global.clone(), seq)),
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

// ---------------------------------------------------------------------------
// Guard
// ---------------------------------------------------------------------------

/// A pinned region. Dropping the guard unpins and may run deferred
/// closures of its collector that became unreachable.
pub struct Guard {
    /// The collector pinned and this guard's sequence number; `None`
    /// for the `unprotected()` guard.
    pinned: Option<(Arc<Global>, u64)>,
}

/// Pin the current thread in the process-wide default collector.
pub fn pin() -> Guard {
    static DEFAULT: OnceLock<Collector> = OnceLock::new();
    DEFAULT.get_or_init(Collector::new).pin()
}

/// Returns a guard that performs no pinning; deferred functions run
/// immediately (upstream semantics).
///
/// # Safety
/// The caller must guarantee no other thread can concurrently access
/// the data structures touched through this guard.
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard { pinned: None };
    &UNPROTECTED
}

impl Guard {
    /// Defer `f` until all currently pinned guards are dropped.
    pub fn defer<F, R>(&self, f: F)
    where
        F: FnOnce() -> R,
        F: Send + 'static,
    {
        match &self.pinned {
            None => {
                f();
            }
            Some((global, _)) => global.with(|reg| {
                let tag = reg.take_seq();
                reg.deferred.push((
                    tag,
                    Box::new(move || {
                        f();
                    }),
                ));
            }),
        }
    }

    /// Defer dropping the heap allocation behind `ptr`.
    ///
    /// # Safety
    /// `ptr` must have originated from `Owned::new` / `Owned::into_*`
    /// and must not be reachable by readers after the current epoch.
    pub unsafe fn defer_destroy<T: 'static>(&self, ptr: Shared<'_, T>) {
        let raw = ptr.raw as usize;
        if raw == 0 {
            return;
        }
        self.defer(move || {
            drop(unsafe { Box::from_raw(raw as *mut T) });
        });
    }

    /// Run the collector's deferred closures that are ready now.
    pub fn flush(&self) {
        if let Some((global, _)) = &self.pinned {
            for f in global.with(Registry::take_ready) {
                f();
            }
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((global, seq)) = self.pinned.take() {
            let ready = global.with(|reg| {
                let at = reg.active.iter().position(|&s| s == seq);
                reg.active
                    .swap_remove(at.expect("a pinned guard is active"));
                reg.take_ready()
            });
            // Outside the registry lock, so a closure may pin.
            for f in ready {
                f();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pointer types
// ---------------------------------------------------------------------------

/// An owned heap allocation that can be published into an [`Atomic`].
pub struct Owned<T> {
    raw: *mut T,
}

impl<T> Owned<T> {
    pub fn new(value: T) -> Self {
        Owned {
            raw: Box::into_raw(Box::new(value)),
        }
    }

    pub fn into_box(self) -> Box<T> {
        let b = unsafe { Box::from_raw(self.raw) };
        mem::forget(self);
        b
    }

    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let raw = self.raw;
        mem::forget(self);
        Shared {
            raw,
            _marker: PhantomData,
        }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        drop(unsafe { Box::from_raw(self.raw) });
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.raw }
    }
}

/// A pointer observed under a guard. Copyable; may be null.
pub struct Shared<'g, T> {
    raw: *mut T,
    _marker: PhantomData<(&'g (), *mut T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    pub fn null() -> Self {
        Shared {
            raw: ptr::null_mut(),
            _marker: PhantomData,
        }
    }

    pub fn is_null(&self) -> bool {
        self.raw.is_null()
    }

    pub fn as_raw(&self) -> *const T {
        self.raw
    }

    /// # Safety
    /// The pointer must be valid for the guard's lifetime.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        unsafe { self.raw.as_ref() }
    }

    /// # Safety
    /// The pointer must be non-null and valid for the guard's lifetime.
    pub unsafe fn deref(&self) -> &'g T {
        unsafe { &*self.raw }
    }

    /// # Safety
    /// The caller must own the allocation exclusively.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.raw.is_null());
        Owned { raw: self.raw }
    }
}

/// Conversion into a raw pointer for publication (upstream's
/// `Pointer<T>` trait).
pub trait Pointer<T> {
    fn into_raw(self) -> *mut T;
}

impl<T> Pointer<T> for Owned<T> {
    fn into_raw(self) -> *mut T {
        let raw = self.raw;
        mem::forget(self);
        raw
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_raw(self) -> *mut T {
        self.raw
    }
}

/// An atomic nullable pointer to a heap allocation.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    pub fn null() -> Self {
        Atomic {
            ptr: AtomicPtr::new(ptr::null_mut()),
        }
    }

    pub fn new(value: T) -> Self {
        Atomic {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            raw: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.ptr.store(new.into_raw(), ord);
    }

    pub fn swap<'g, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        _guard: &'g Guard,
    ) -> Shared<'g, T> {
        Shared {
            raw: self.ptr.swap(new.into_raw(), ord),
            _marker: PhantomData,
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn deferred_runs_after_last_guard_drops() {
        // A collector of its own: sibling tests pin the default one on
        // other threads, and a guard of theirs would hold this defer.
        let c = Collector::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let outer = c.pin();
        {
            let inner = c.pin();
            let r = ran.clone();
            inner.defer(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            drop(inner);
            // Outer guard predates the defer tag: must not run yet.
            assert_eq!(ran.load(Ordering::SeqCst), 0);
        }
        drop(outer);
        // Trigger a collection cycle.
        drop(c.pin());
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn collectors_are_independent_and_the_last_unpin_drains() {
        let ran = Arc::new(AtomicUsize::new(0));
        let count = |ran: &Arc<AtomicUsize>| {
            let r = ran.clone();
            move || {
                r.fetch_add(1, Ordering::SeqCst);
            }
        };
        let foreign = pin(); // older than every defer below, elsewhere
        let c = Collector::new();
        let held = c.pin();
        c.pin().defer(count(&ran));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "`held` predates the defer");
        // Handles may go first: a guard keeps its collector alive, and
        // the collector's last unpin runs everything it still holds.
        drop(c);
        drop(held);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        drop(foreign);
    }

    #[test]
    fn atomic_swap_and_destroy() {
        let a: Atomic<u64> = Atomic::null();
        let g = pin();
        a.store(Owned::new(5), Ordering::Release);
        let s = a.load(Ordering::Acquire, &g);
        assert_eq!(unsafe { s.as_ref() }, Some(&5));
        let old = a.swap(Owned::new(6), Ordering::AcqRel, &g);
        unsafe { g.defer_destroy(old) };
        drop(g);
        let g = pin();
        let s = a.swap(Shared::null(), Ordering::AcqRel, &g);
        drop(unsafe { s.into_owned() });
    }

    #[test]
    fn unprotected_defer_runs_immediately() {
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        unsafe { unprotected() }.defer(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}
