//! The one owner of index construction and recovery by name: a table
//! from index-kind name to a way of creating and reopening that index,
//! and the two shard-level entry points over it — [`fresh_shard`]
//! (a new pool, allocator and index, or the volatile `dram` baseline
//! with neither) and [`try_recover_shard_as`] (allocator, then index,
//! from a pool's persisted image). The crash scenarios here,
//! `net::build`'s sharded stack (and through it `pmserve`, the
//! experiment harness and `pibench`), `pm_inspector` and
//! `crash_torture` all open indexes through them. Adding a kind, or a
//! configuration variant such as `fptree-nofp`, is one row of [`KINDS`]
//! (and, for a kind proper, its name in [`PM_KINDS`]); nothing else
//! matches on kind names.

use std::sync::Arc;

use bztree::{BzTree, BzTreeConfig};
use dram_index::DramTree;
use engine::Shard;
use fptree::{FpTree, FpTreeConfig, KeyMode};
use index_api::RangeIndex;
use learned::{LearnedConfig, LearnedIndex};
use nvtree::{NvTree, NvTreeConfig};
use pmalloc::{AllocMode, PmAllocator};
use pmem::{MediaError, PmConfig, PmPool};
use wbtree::{WbTree, WbTreeConfig};

/// The five persistent index kinds, in report order.
pub const PM_KINDS: [&str; 5] = ["fptree", "nvtree", "wbtree", "bztree", "learned"];

/// [`PM_KINDS`] and one more name: `dram` (the volatile baseline) where
/// a tool also builds that, `all` where `--kind` may select every kind.
pub const fn kinds_and(extra: &'static str) -> [&'static str; 6] {
    let mut names = [extra; 6];
    let mut i = 0;
    while i < PM_KINDS.len() {
        names[i] = PM_KINDS[i];
        i += 1;
    }
    names
}

/// Which configuration of a kind to open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The kind's `Default` config: what servers and benchmarks run.
    Default,
    /// The one small-node config every sweep and integration test uses:
    /// deliberately small nodes so short workloads exercise splits and
    /// other structure-modifying operations, and for the learned index
    /// a tiny ε and delta capacity so they cross many
    /// merge/retrain/publish windows over several chunks.
    Small,
    /// The default config with this many records per leaf/node (E12);
    /// each kind clamps to its legal range, and the learned index reads
    /// it as ε, the search window its segments guarantee.
    NodeEntries(usize),
}

type Opened = Result<Arc<dyn RangeIndex>, MediaError>;

/// One row of [`KINDS`].
pub struct Kind {
    /// The name tools select it by.
    pub name: &'static str,
    open: fn(Arc<PmAllocator>, Shape, bool) -> Opened,
}

/// Create or recover one concrete index type, type-erased.
fn open<T: RangeIndex + 'static, C>(
    alloc: Arc<PmAllocator>,
    cfg: C,
    recover: bool,
    create: fn(Arc<PmAllocator>, C) -> Arc<T>,
    try_recover: fn(Arc<PmAllocator>, C) -> Result<Arc<T>, MediaError>,
) -> Opened {
    Ok(if recover {
        try_recover(alloc, cfg)?
    } else {
        create(alloc, cfg)
    })
}

fn fptree_cfg(shape: Shape) -> FpTreeConfig {
    let default = FpTreeConfig::default();
    match shape {
        Shape::Default => default,
        Shape::Small => FpTreeConfig {
            leaf_entries: 16,
            inner_fanout: 8,
            ..default
        },
        Shape::NodeEntries(n) => FpTreeConfig {
            leaf_entries: n.min(64),
            ..default
        },
    }
}

fn open_fptree(alloc: Arc<PmAllocator>, cfg: FpTreeConfig, recover: bool) -> Opened {
    open(alloc, cfg, recover, FpTree::create, FpTree::try_recover)
}

fn wbtree_cfg(shape: Shape) -> WbTreeConfig {
    let default = WbTreeConfig::default();
    match shape {
        Shape::Default => default,
        Shape::Small => WbTreeConfig {
            node_entries: 8,
            ..default
        },
        Shape::NodeEntries(n) => WbTreeConfig {
            node_entries: n.min(62),
            ..default
        },
    }
}

fn open_wbtree(alloc: Arc<PmAllocator>, cfg: WbTreeConfig, recover: bool) -> Opened {
    open(alloc, cfg, recover, WbTree::create, WbTree::try_recover)
}

/// The table: the five kinds in [`PM_KINDS`] order, then the ablation
/// variants of E9, E14 and E15.
pub static KINDS: [Kind; 8] = [
    Kind {
        name: "fptree",
        open: |alloc, shape, recover| open_fptree(alloc, fptree_cfg(shape), recover),
    },
    Kind {
        name: "nvtree",
        open: |alloc, shape, recover| {
            let default = NvTreeConfig::default();
            let cfg = match shape {
                Shape::Default => default,
                Shape::Small => NvTreeConfig {
                    leaf_entries: 16,
                    pln_entries: 16,
                },
                Shape::NodeEntries(leaf_entries) => NvTreeConfig {
                    leaf_entries,
                    ..default
                },
            };
            open(alloc, cfg, recover, NvTree::create, NvTree::try_recover)
        },
    },
    Kind {
        name: "wbtree",
        open: |alloc, shape, recover| open_wbtree(alloc, wbtree_cfg(shape), recover),
    },
    Kind {
        name: "bztree",
        open: |alloc, shape, recover| {
            let cfg = match shape {
                Shape::Default => BzTreeConfig::default(),
                Shape::Small => BzTreeConfig { node_entries: 16 },
                Shape::NodeEntries(node_entries) => BzTreeConfig { node_entries },
            };
            open(alloc, cfg, recover, BzTree::create, BzTree::try_recover)
        },
    },
    Kind {
        name: "learned",
        open: |alloc, shape, recover| {
            let default = LearnedConfig::default();
            let cfg = match shape {
                Shape::Default => default,
                Shape::Small => LearnedConfig {
                    epsilon: 4,
                    delta_min_cap: 24,
                    chunk_entries: 64,
                },
                Shape::NodeEntries(n) => LearnedConfig {
                    epsilon: (n as u64).clamp(4, 1024),
                    ..default
                },
            };
            let (create, try_recover) = (LearnedIndex::create, LearnedIndex::try_recover);
            open(alloc, cfg, recover, create, try_recover)
        },
    },
    Kind {
        name: "fptree-nofp",
        open: |alloc, shape, recover| {
            let cfg = FpTreeConfig {
                use_fingerprints: false,
                ..fptree_cfg(shape)
            };
            open_fptree(alloc, cfg, recover)
        },
    },
    Kind {
        name: "fptree-varkey",
        open: |alloc, shape, recover| {
            let cfg = FpTreeConfig {
                key_mode: KeyMode::Pointer,
                ..fptree_cfg(shape)
            };
            open_fptree(alloc, cfg, recover)
        },
    },
    Kind {
        name: "wbtree-noslots",
        open: |alloc, shape, recover| {
            let cfg = WbTreeConfig {
                use_slot_array: false,
                ..wbtree_cfg(shape)
            };
            open_wbtree(alloc, cfg, recover)
        },
    },
];

/// The row named `name`. Tools check the names they take from a command
/// line against [`PM_KINDS`] first, so an unknown one here is a bug.
pub fn kind(name: &str) -> &'static Kind {
    let row = KINDS.iter().find(|k| k.name == name);
    row.unwrap_or_else(|| panic!("unknown PM index kind {name:?}"))
}

impl Kind {
    /// A fresh index on a formatted allocator.
    pub fn create(&self, alloc: Arc<PmAllocator>, shape: Shape) -> Arc<dyn RangeIndex> {
        (self.open)(alloc, shape, false).expect("creating an index reads no poisoned line")
    }

    /// Reopen the index a recovered allocator holds: a poisoned line on
    /// the recovery path comes back as a reported [`MediaError`] instead
    /// of garbage or a raw [`pmem::PoisonedRead`] panic.
    pub fn try_recover(&self, alloc: Arc<PmAllocator>, shape: Shape) -> Opened {
        (self.open)(alloc, shape, true)
    }
}

/// A fresh shard: an index of `kind` on its own freshly formatted pool
/// of `pool_bytes` and its own allocator, or for `dram` the volatile
/// baseline with neither.
pub fn fresh_shard(
    kind: &str,
    shape: Shape,
    mode: AllocMode,
    pool_bytes: usize,
    pm: PmConfig,
) -> Shard {
    if kind == "dram" {
        let index = Arc::new(DramTree::new());
        return Shard {
            index,
            pool: None,
            alloc: None,
        };
    }
    let pool = Arc::new(PmPool::new(pool_bytes, pm));
    let alloc = PmAllocator::format(pool.clone(), mode);
    Shard {
        index: self::kind(kind).create(alloc.clone(), shape),
        pool: Some(pool),
        alloc: Some(alloc),
    }
}

/// Recover one pool's full stack (allocator + index) from its persisted
/// image, reporting the first media error hit on either layer.
pub fn try_recover_shard_as(
    kind: &str,
    shape: Shape,
    pool: Arc<PmPool>,
) -> Result<Shard, MediaError> {
    let alloc = PmAllocator::try_recover(pool.clone())?;
    Ok(Shard {
        index: self::kind(kind).try_recover(alloc.clone(), shape)?,
        pool: Some(pool),
        alloc: Some(alloc),
    })
}
