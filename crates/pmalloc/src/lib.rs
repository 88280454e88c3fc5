//! # pmalloc — a persistent-memory allocator
//!
//! A from-scratch stand-in for PMDK's `libpmemobj` allocator, sized for
//! the needs of persistent range indexes and for the paper's allocator
//! experiments:
//!
//! * **Persistent metadata.** The heap is carved into fixed-size chunks;
//!   each chunk is bound to one size class and tracks its blocks in a
//!   persistent bitmap. After a crash, [`PmAllocator::try_recover`] rebuilds
//!   all volatile state from chunk headers and bitmaps alone.
//! * **Atomic allocate-and-publish.** A bare `alloc` followed by linking
//!   the block into a data structure leaves a crash window that leaks
//!   PM. [`PmAllocator::alloc_linked`] closes it with a per-slot
//!   in-flight record (a miniature redo log), the same pattern as
//!   PMDK's reserve/publish: recovery either completes the publication
//!   or rolls the allocation back.
//! * **Two allocation modes** for the paper's allocator ablation (E10):
//!   [`AllocMode::General`] funnels every request through the shared
//!   per-class state (PMDK-like), while [`AllocMode::Striped`] adds
//!   magazine caches striped across threads (the "customized slab"
//!   design FPTree and ROART resort to). Magazine-cached blocks are
//!   volatile; a crash leaks them until the next format, which mirrors
//!   the real trade-off those designs make and is reported by
//!   [`PmAllocator::leaked_bytes_estimate`].
//!
//! The allocator deliberately pays its metadata maintenance *through the
//! emulated PM device* (persistent bitmap updates are flushed and
//! fenced), so with the latency model enabled, allocation is expensive —
//! reproducing the paper's finding that PM allocation is a first-order
//! bottleneck for index inserts.

mod allocator;
mod classes;

pub use allocator::{AllocMode, AllocStats, PmAllocator};
pub use classes::{class_for_size, class_size, NUM_CLASSES};

/// Errors returned by allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The pool has no free chunk/block able to satisfy the request.
    OutOfMemory,
    /// Requested size exceeds the largest supported size class.
    TooLarge(usize),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "persistent pool exhausted"),
            AllocError::TooLarge(s) => write!(f, "allocation of {s} bytes exceeds max class"),
        }
    }
}

impl std::error::Error for AllocError {}
