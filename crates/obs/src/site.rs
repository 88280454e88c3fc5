//! Scoped site attribution: `obs::site("leaf_split")` tags every PM
//! event the current thread issues until the guard drops.
//!
//! Site names are interned once into a small global table (the hot
//! path hits a per-thread pointer-keyed cache, not the interner lock);
//! per-thread per-site counters live next to each thread's event ring
//! and are summed on demand into the [`SiteAgg`] report table.

use std::sync::Mutex;

use crate::{ring, PmCounts};

/// Maximum distinct sites; names interned beyond this fold into
/// [`SITE_OTHER`]. 64 is far above the current taxonomy (~25 sites).
pub const MAX_SITES: usize = 64;

/// The catch-all site: traffic issued outside any `obs::site` scope.
pub const SITE_OTHER: &str = "other";

/// Site id of [`SITE_OTHER`] (always the first interned entry).
pub(crate) const SITE_OTHER_ID: u8 = 0;

fn interner() -> std::sync::MutexGuard<'static, Vec<&'static str>> {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut g = NAMES.lock().unwrap_or_else(|p| p.into_inner());
    if g.is_empty() {
        g.push(SITE_OTHER);
    }
    g
}

/// Intern `name`, returning its site id. Deduplicates by content, so
/// the same literal in two crates maps to one site.
fn intern(name: &'static str) -> u8 {
    let mut names = interner();
    if let Some(i) = names.iter().position(|n| *n == name) {
        return i as u8;
    }
    if names.len() >= MAX_SITES {
        return SITE_OTHER_ID;
    }
    names.push(name);
    (names.len() - 1) as u8
}

/// RAII guard restoring the previous site scope on drop.
/// `None` means tracing was off at entry and there is nothing to undo.
#[must_use = "the site scope ends when this guard drops"]
pub struct SiteGuard {
    prev: Option<u8>,
}

impl Drop for SiteGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            ring::with_handle(|h| h.current_site.set(prev));
        }
    }
}

#[inline]
pub(crate) fn enter(name: &'static str) -> SiteGuard {
    if !crate::enabled() {
        return SiteGuard { prev: None };
    }
    let prev = ring::with_handle(|h| {
        // Per-thread cache keyed by the string's data pointer: one
        // interner lock per (thread, site) pair, ever.
        let key = name.as_ptr() as usize;
        let cached = h.site_cache.borrow().get(&key).copied();
        let id = cached.unwrap_or_else(|| {
            let id = intern(name);
            h.site_cache.borrow_mut().insert(key, id);
            id
        });
        h.current_site.replace(id)
    });
    SiteGuard { prev: Some(prev) }
}

/// One row of the per-site traffic table: the counters attributed to
/// `name`, summed over all threads since the last `obs::reset`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteAgg {
    pub name: String,
    pub counts: PmCounts,
}

pub(crate) fn names() -> Vec<String> {
    interner().iter().map(|s| s.to_string()).collect()
}

/// Aggregate table: one row per interned site, media-write-heavy rows
/// first so reports lead with the dominant write paths.
pub(crate) fn table() -> Vec<SiteAgg> {
    let names = names();
    let sums = ring::site_sums(names.len());
    let mut rows: Vec<SiteAgg> = names
        .into_iter()
        .zip(sums)
        .map(|(name, counts)| SiteAgg { name, counts })
        .collect();
    let weight = |s: &SiteAgg| (s.counts.media_write_bytes, s.counts.events());
    rows.sort_by(|a, b| weight(b).cmp(&weight(a)).then_with(|| a.name.cmp(&b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_content_deduped() {
        let a = intern("site_test_alpha");
        let b = intern("site_test_alpha");
        assert_eq!(a, b);
        let other = intern(SITE_OTHER);
        assert_eq!(other, SITE_OTHER_ID);
        let names = names();
        assert_eq!(names[SITE_OTHER_ID as usize], SITE_OTHER);
        assert_eq!(names[a as usize], "site_test_alpha");
    }

    #[test]
    fn guard_is_noop_when_disabled() {
        let _g = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        crate::set_enabled(false);
        let before = ring::with_handle(|h| h.current_site.get());
        {
            let _s = enter("site_test_disabled");
            let during = ring::with_handle(|h| h.current_site.get());
            assert_eq!(before, during);
        }
    }
}
