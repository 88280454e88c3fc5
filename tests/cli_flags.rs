//! What every tool's command line goes through: the shared flag parser,
//! the typed parsers of `--mix` and `--dist`, and the kind table that
//! `--index` / `--kind` select a row of.

use pm_index_bench::crashpoint::{
    fresh_shard, kinds_and, try_recover_shard_as, Shape, KINDS, PM_KINDS,
};
use pm_index_bench::net::build::ALL_KINDS;
use pm_index_bench::pibench::cli::{Arg, Flags, Spec};
use pm_index_bench::pibench::{Distribution, OpKind, OpMix};
use pm_index_bench::pmalloc::AllocMode;
use pm_index_bench::pmem::PmConfig;

const SPEC: Spec = &[
    ("rounds", Arg::Int(1)),
    ("--threads", Arg::Int(1)),
    ("--seed", Arg::Int(0)),
    ("--scan-len", Arg::IntIn(0, 9)),
    ("--theta", Arg::Float),
    ("--addr", Arg::Text),
    ("--index", Arg::OneOf(&ALL_KINDS)),
    ("--dram", Arg::Switch),
];

fn parse(args: &[&str]) -> Result<Flags, String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    Flags::parse(&args, SPEC)
}

fn rejected(args: &[&str], message: &str) {
    match parse(args) {
        Ok(_) => panic!("{args:?} was accepted"),
        Err(e) => {
            assert!(e.contains(message), "{args:?}: {e}");
            assert_eq!(e.lines().count(), 1, "one line: {e}");
        }
    }
}

#[test]
fn flags_of_every_type_parse() {
    let f = parse(&[
        "--threads",
        "4",
        "7",
        "--theta",
        "0.5",
        "--addr",
        "h:1",
        "--index",
        "dram",
        "--dram",
    ])
    .unwrap();
    assert_eq!(f.int("--threads"), Some(4));
    assert_eq!(f.int("rounds"), Some(7));
    assert_eq!(f.float("--theta"), Some(0.5));
    assert_eq!(f.text("--addr"), Some("h:1"));
    assert_eq!(f.text("--index"), Some("dram"));
    assert!(f.on("--dram") && !f.on("--seed"));
    assert_eq!(f.int("--seed"), None);
    assert_eq!(parse(&["--seed", "0"]).unwrap().int("--seed"), Some(0));
    let bound = parse(&["--scan-len", "9"]).unwrap();
    assert_eq!(bound.int("--scan-len"), Some(9));
    assert_eq!(
        f.parsed("--addr", |s| Ok::<usize, String>(s.len())),
        Some(3)
    );
}

#[test]
fn bad_command_lines_are_one_line_errors_naming_the_flag() {
    rejected(&["--thread", "4"], "unknown flag \"--thread\"");
    // The error lists what is accepted.
    rejected(&["--thread", "4"], "--threads N>=1");
    rejected(&["--thread", "4"], "--index fptree|nvtree");
    rejected(&["--threads"], "--threads expects a value");
    rejected(&["--threads", "many"], "--threads expects an integer");
    rejected(&["--threads", "0"], "--threads expects an integer >= 1");
    rejected(&["0"], "rounds expects an integer >= 1");
    rejected(
        &["--scan-len", "10"],
        "--scan-len expects an integer in 0..=9",
    );
    rejected(&["3", "4"], "unknown flag \"4\"");
    rejected(&["--theta", "x"], "--theta expects a number");
    rejected(&["--theta", "inf"], "--theta expects a number");
    rejected(&["--index", "btree"], "--index expects one of fptree|");
    // A flag of another tool is as unknown as a typo.
    rejected(&["--conns", "2"], "unknown flag \"--conns\"");
}

#[test]
fn mixes_parse_or_say_what_is_expected() {
    assert_eq!(OpMix::parse("90,10,0,0,0"), Ok(OpMix::read_insert(90)));
    assert_eq!(
        OpMix::parse(" 0, 0,0 ,0,100"),
        Ok(OpMix::pure(OpKind::Scan))
    );
    // Six parts with a bad one used to run as a 50/50 lookup/insert mix.
    for bad in [
        "50,x,50,0,0,0",
        "50,50,0,0,0,0",
        "50,50,0,0",
        "50,40,0,0,0",
        "60,60,0,0,0",
        "300,0,0,0,0",
        "",
        "100",
    ] {
        let e = OpMix::parse(bad).unwrap_err();
        assert!(e.contains("five percentages") && e.contains("100"), "{e}");
    }
}

#[test]
fn distributions_parse_the_same_four_names_for_every_tool() {
    let parse = |name| Distribution::parse(name, None, 5_000);
    assert_eq!(parse("uniform"), Ok(Distribution::Uniform));
    assert_eq!(parse("selfsimilar"), Ok(Distribution::self_similar_80_20()));
    assert_eq!(parse("zipfian"), Ok(Distribution::Zipfian { theta: 0.99 }));
    let storm = Distribution::HotStorm { hot: 50, frac: 0.9 };
    assert_eq!(parse("storm"), Ok(storm));
    assert_eq!(
        Distribution::storm(5),
        Distribution::HotStorm { hot: 1, frac: 0.9 }
    );
    for name in pm_index_bench::pibench::dist::NAMES {
        assert!(parse(name).is_ok(), "{name}");
    }
    assert!(parse("zipf")
        .unwrap_err()
        .contains("uniform|selfsimilar|zipfian|storm"));
    for theta in [0.0, 1.0, 1.5, -0.1, f64::NAN] {
        let e = Distribution::parse("zipfian", Some(theta), 10).unwrap_err();
        assert!(e.contains("--theta in (0, 1)"), "{e}");
    }
}

#[test]
fn every_kind_table_row_in_both_shapes_survives_a_crash() {
    for row in &KINDS {
        for shape in [Shape::Default, Shape::Small] {
            let (mode, pm) = (AllocMode::General, PmConfig::real());
            let shard = fresh_shard(row.name, shape, mode, 32 << 20, pm);
            for k in 0..2_000u64 {
                assert!(shard.index.insert(k * 7, k), "{} {shape:?}", row.name);
            }
            let pool = shard.pool.clone().expect("a PM shard");
            drop(shard);
            pool.crash();
            let back = try_recover_shard_as(row.name, shape, pool).expect("no media error");
            for k in 0..2_000u64 {
                assert_eq!(back.index.lookup(k * 7), Some(k), "{} {shape:?}", row.name);
            }
        }
    }
}

#[test]
fn the_kind_table_names_every_pm_kind_exactly_once() {
    let names: Vec<&str> = KINDS.iter().map(|k| k.name).collect();
    assert_eq!(names[..PM_KINDS.len()], PM_KINDS);
    // Every other row is a variant `<kind>-<what>` of one of them.
    for variant in &names[PM_KINDS.len()..] {
        let base = variant.split('-').next().unwrap();
        assert!(PM_KINDS.contains(&base) && *variant != base, "{variant}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate table rows");
    assert_eq!(ALL_KINDS[..5], PM_KINDS);
    assert_eq!((ALL_KINDS[5], kinds_and("all")[5]), ("dram", "all"));
}

#[test]
fn node_entries_reshape_every_kind() {
    for kind in PM_KINDS {
        let (shape, mode) = (Shape::NodeEntries(16), AllocMode::General);
        let shard = fresh_shard(kind, shape, mode, 16 << 20, PmConfig::real());
        for k in 0..200u64 {
            assert!(shard.index.insert(k, k), "{kind}");
        }
        let mut out = Vec::new();
        assert_eq!(shard.index.scan(0, 200, &mut out), 200, "{kind}");
    }
}
