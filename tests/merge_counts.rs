//! Counted work of the two-input merge under merge join and the set
//! operations (Section 4.7), pinned exactly.
//!
//! Every `JoinType` and every `SetOp` runs over fixed seeded inputs —
//! ascending, descending and mixed-direction keys, a hot key, one side
//! empty, one side that runs out early — both as a serial kernel and as
//! a planned query at dop 2 (split, per-partition kernel, gather).  Each
//! case pins its output row count, a digest of its rows and codes, and
//! its column and code comparison counts.  A rewrite of the merge that
//! moves any of them fails here.
//!
//! `PRINT_MERGE_COUNTS=1 cargo test --test merge_counts -- --nocapture`
//! prints the table in the form it is pinned in.

use std::sync::Arc;

use ovc_core::{BatchStream, Direction, FlatRows, Row, SortSpec, Stats};
use ovc_exec::{JoinType, MergeJoin, SetOp, SetOperation};
use ovc_plan::{execute, Catalog, ExecOptions, LogicalPlan, Planner, PlannerConfig, Preference};
use ovc_plan::{Output, Table};
use ovc_sort::Run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const JOIN_TYPES: [JoinType; 6] = [
    JoinType::Inner,
    JoinType::LeftOuter,
    JoinType::RightOuter,
    JoinType::FullOuter,
    JoinType::LeftSemi,
    JoinType::LeftAnti,
];

const SET_OPS: [SetOp; 6] = [
    SetOp::Union,
    SetOp::UnionAll,
    SetOp::Intersect,
    SetOp::IntersectAll,
    SetOp::Except,
    SetOp::ExceptAll,
];

/// One pair of inputs: `(label, spec, left, right)`, each side's rows
/// already ordered under `spec` (a key over the first two columns).
type Inputs = (&'static str, SortSpec, Vec<Vec<u64>>, Vec<Vec<u64>>);

/// `n` seeded rows of `width` columns over `domains`; with `hot`, about
/// two rows in three take the key `(1, 1)`.
fn side(seed: u64, n: usize, domains: &[u64], hot: bool, spec: &SortSpec) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            let mut row: Vec<u64> = domains.iter().map(|&d| rng.gen_range(0..d)).collect();
            if hot && rng.gen_range(0..3u64) < 2 {
                row[0] = 1;
                row[1] = 1;
            }
            row
        })
        .collect();
    rows.sort_by(|a, b| spec.cmp_keys(&a[..2], &b[..2]).then_with(|| a.cmp(b)));
    rows
}

/// The scenarios, for rows `domains.len()` columns wide.
fn scenarios(domains: &[u64]) -> Vec<Inputs> {
    let asc = SortSpec::asc(2);
    let desc = SortSpec::desc(2);
    let mixed = SortSpec::with_dirs(&[Direction::Asc, Direction::Desc]);
    let narrow: Vec<u64> = [4].iter().chain(&domains[1..]).copied().collect();
    let mk = |seed, n, d: &[u64], hot, spec: &SortSpec| side(seed, n, d, hot, spec);
    vec![
        (
            "asc",
            asc.clone(),
            mk(1, 90, domains, false, &asc),
            mk(2, 80, domains, false, &asc),
        ),
        (
            "desc",
            desc.clone(),
            mk(3, 90, domains, false, &desc),
            mk(4, 80, domains, false, &desc),
        ),
        (
            "mixed",
            mixed.clone(),
            mk(5, 90, domains, false, &mixed),
            mk(6, 80, domains, false, &mixed),
        ),
        (
            "hot",
            asc.clone(),
            mk(7, 90, domains, true, &asc),
            mk(8, 80, domains, true, &asc),
        ),
        (
            "left_empty",
            asc.clone(),
            Vec::new(),
            mk(9, 60, domains, false, &asc),
        ),
        (
            "right_empty",
            asc.clone(),
            mk(10, 60, domains, false, &asc),
            Vec::new(),
        ),
        (
            "left_ends_early",
            asc.clone(),
            mk(11, 50, &narrow, false, &asc),
            mk(12, 70, domains, false, &asc),
        ),
        (
            "right_ends_early",
            asc.clone(),
            mk(13, 70, domains, false, &asc),
            mk(14, 50, &narrow, false, &asc),
        ),
    ]
}

/// Join rows: key `(c0, c1)` over a small domain, then a payload.
fn join_scenarios() -> Vec<Inputs> {
    scenarios(&[10, 3, 1000])
}

/// Set-operation rows: the key is the whole row.
fn set_scenarios() -> Vec<Inputs> {
    scenarios(&[10, 3])
}

/// The join length a scenario runs with: the full key, except that the
/// hot key and the mixed spec also run on a one-column prefix.
fn join_lens(label: &str) -> &'static [usize] {
    match label {
        "hot" | "mixed" | "asc" => &[1, 2],
        _ => &[2],
    }
}

fn coded(rows: &[Vec<u64>], spec: &SortSpec) -> ovc_core::FlatBatches {
    let rows = rows.iter().cloned().map(Row::new).collect();
    Run::from_sorted_rows_spec(rows, spec.clone()).batches(16)
}

/// `(rows, FNV-1a over every column value and raw code)`.
fn digest<'a>(rows: impl Iterator<Item = (&'a [u64], u64)>) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut n = 0;
    for (cols, code) in rows {
        for w in cols.iter().copied().chain([code]) {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        n += 1;
    }
    (n, h)
}

fn drain(mut stream: impl BatchStream) -> (usize, u64) {
    let mut batches: Vec<FlatRows> = Vec::new();
    while let Some(b) = stream.next_batch().unwrap() {
        batches.push(b);
    }
    digest(
        batches
            .iter()
            .flat_map(FlatRows::iter)
            .map(|(cols, code)| (cols, code.raw())),
    )
}

fn output_digest(out: Output) -> (usize, u64) {
    let rows = out.into_coded();
    digest(rows.iter().map(|r| (r.row.cols(), r.code.raw())))
}

/// One measured case: `(label, rows, digest, column cmps, code cmps)`.
type Counted = (String, usize, u64, u64, u64);

fn counted(label: String, (rows, digest): (usize, u64), stats: &Stats) -> Counted {
    (
        label,
        rows,
        digest,
        stats.col_value_cmps(),
        stats.ovc_cmps(),
    )
}

fn serial_joins() -> Vec<Counted> {
    let mut out = Vec::new();
    for (label, spec, l, r) in join_scenarios() {
        for &j in join_lens(label) {
            for jt in JOIN_TYPES {
                let stats = Stats::new_shared();
                let join = MergeJoin::new(
                    coded(&l, &spec),
                    coded(&r, &spec),
                    j,
                    jt,
                    3,
                    3,
                    32,
                    Arc::clone(&stats),
                );
                out.push(counted(format!("{jt:?}/{label}/j{j}"), drain(join), &stats));
            }
        }
    }
    out
}

fn serial_set_ops() -> Vec<Counted> {
    let mut out = Vec::new();
    for (label, spec, l, r) in set_scenarios() {
        for op in SET_OPS {
            let stats = Stats::new_shared();
            let setop = SetOperation::new(
                coded(&l, &spec),
                coded(&r, &spec),
                op,
                32,
                Arc::clone(&stats),
            );
            out.push(counted(format!("{op:?}/{label}"), drain(setop), &stats));
        }
    }
    out
}

/// Plan `query` over the two sides at dop 2 (sorts elided, the kernel
/// partitioned where the planner partitions it) and run it; also
/// returns the plan's exchange count.
fn planned(
    spec: &SortSpec,
    l: &[Vec<u64>],
    r: &[Vec<u64>],
    query: LogicalPlan,
) -> (Output, Arc<Stats>, usize) {
    let table = |rows: &[Vec<u64>]| {
        Table::sorted_by(rows.iter().cloned().map(Row::new).collect(), spec.clone())
    };
    let mut catalog = Catalog::new();
    catalog.register("l", table(l));
    catalog.register("r", table(r));
    let cfg = PlannerConfig::default()
        .with_preference(Preference::ForceSortBased)
        .with_dop(2)
        .with_parallel_threshold(1);
    let plan = Planner::new(&catalog, cfg).plan(&query).expect("plans");
    let stats = Stats::new_shared();
    let options = ExecOptions {
        batch_size: Some(16),
        ..Default::default()
    };
    let output = execute(&plan, &catalog, &stats, &options);
    (output, stats, plan.count_op("Exchange"))
}

fn planned_joins() -> Vec<Counted> {
    let mut out = Vec::new();
    for (label, spec, l, r) in join_scenarios() {
        for &j in join_lens(label) {
            for jt in JOIN_TYPES {
                let q = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), j, jt);
                let (output, stats, ex) = planned(&spec, &l, &r, q);
                let label = format!("{jt:?}/{label}/j{j}/dop2/exchanges{ex}");
                out.push(counted(label, output_digest(output), &stats));
            }
        }
    }
    out
}

fn planned_set_ops() -> Vec<Counted> {
    let mut out = Vec::new();
    for (label, spec, l, r) in set_scenarios() {
        for op in SET_OPS {
            let q = LogicalPlan::scan("l").set_op(LogicalPlan::scan("r"), op);
            let (output, stats, ex) = planned(&spec, &l, &r, q);
            let label = format!("{op:?}/{label}/dop2/exchanges{ex}");
            out.push(counted(label, output_digest(output), &stats));
        }
    }
    out
}

/// Compare a measured table against its pinned constants, or print it.
fn check(name: &str, got: Vec<Counted>, expect: &[(&str, usize, u64, u64, u64)]) {
    if std::env::var_os("PRINT_MERGE_COUNTS").is_some() {
        println!("// {name}");
        for (label, rows, digest, cols, codes) in &got {
            println!("(\"{label}\", {rows}, {digest:#018x}, {cols}, {codes}),");
        }
        return;
    }
    assert_eq!(got.len(), expect.len(), "{name}: one constant per case");
    for (g, e) in got.iter().zip(expect) {
        let e = (e.0.to_string(), e.1, e.2, e.3, e.4);
        assert_eq!(
            *g, e,
            "{name}: (label, rows, digest, column cmps, code cmps)"
        );
    }
}

#[test]
fn serial_join_counts_are_pinned() {
    check("serial joins", serial_joins(), SERIAL_JOINS);
}

#[test]
fn serial_set_op_counts_are_pinned() {
    check("serial set ops", serial_set_ops(), SERIAL_SET_OPS);
}

#[test]
fn planned_join_counts_are_pinned() {
    check("planned joins", planned_joins(), PLANNED_JOINS);
}

#[test]
fn planned_set_op_counts_are_pinned() {
    check("planned set ops", planned_set_ops(), PLANNED_SET_OPS);
}

#[rustfmt::skip]
const SERIAL_JOINS: &[(&str, usize, u64, u64, u64)] = &[
    ("Inner/asc/j1", 716, 0x00a546b8861aae5d, 0, 166),
    ("LeftOuter/asc/j1", 716, 0x00a546b8861aae5d, 0, 166),
    ("RightOuter/asc/j1", 716, 0x00a546b8861aae5d, 0, 166),
    ("FullOuter/asc/j1", 716, 0x00a546b8861aae5d, 0, 166),
    ("LeftSemi/asc/j1", 90, 0x1315da97c1c32948, 0, 166),
    ("LeftAnti/asc/j1", 0, 0xcbf29ce484222325, 0, 166),
    ("Inner/asc/j2", 241, 0x32d6bd54f658c9d9, 10, 166),
    ("LeftOuter/asc/j2", 252, 0x377e2cc201d834cb, 10, 166),
    ("RightOuter/asc/j2", 242, 0x26b6e6a71120af46, 10, 166),
    ("FullOuter/asc/j2", 253, 0x63149346e88336a8, 10, 166),
    ("LeftSemi/asc/j2", 79, 0xf19f22329fdd90ce, 10, 166),
    ("LeftAnti/asc/j2", 11, 0x2f8c2d15f958884f, 10, 166),
    ("Inner/desc/j2", 267, 0xc4d9145c43e2a917, 10, 166),
    ("LeftOuter/desc/j2", 270, 0xb762ad82c34919e8, 10, 166),
    ("RightOuter/desc/j2", 272, 0xadfc1a4ccecd3c9f, 10, 166),
    ("FullOuter/desc/j2", 275, 0x94ff25ea9acc2b94, 10, 166),
    ("LeftSemi/desc/j2", 87, 0x02c6e863ad0acd85, 10, 166),
    ("LeftAnti/desc/j2", 3, 0xed5e16aa529a3375, 10, 166),
    ("Inner/mixed/j1", 675, 0xb562b3163b191425, 0, 156),
    ("LeftOuter/mixed/j1", 675, 0xb562b3163b191425, 0, 156),
    ("RightOuter/mixed/j1", 675, 0xb562b3163b191425, 0, 156),
    ("FullOuter/mixed/j1", 675, 0xb562b3163b191425, 0, 156),
    ("LeftSemi/mixed/j1", 90, 0x1ba54ab679e5f0e0, 0, 156),
    ("LeftAnti/mixed/j1", 0, 0xcbf29ce484222325, 0, 156),
    ("Inner/mixed/j2", 227, 0x5b8d4b46feafc28f, 10, 166),
    ("LeftOuter/mixed/j2", 228, 0x7c959a13f8a7b617, 10, 166),
    ("RightOuter/mixed/j2", 237, 0xa380c328918c4a48, 10, 166),
    ("FullOuter/mixed/j2", 238, 0x6b37b76607b8c900, 10, 166),
    ("LeftSemi/mixed/j2", 89, 0x0f5beb218f44ba60, 10, 166),
    ("LeftAnti/mixed/j2", 1, 0xdb529d729c3ab09d, 10, 166),
    ("Inner/hot/j1", 3223, 0x1ebd323a93edc77c, 0, 169),
    ("LeftOuter/hot/j1", 3223, 0x1ebd323a93edc77c, 0, 169),
    ("RightOuter/hot/j1", 3223, 0x1ebd323a93edc77c, 0, 169),
    ("FullOuter/hot/j1", 3223, 0x1ebd323a93edc77c, 0, 169),
    ("LeftSemi/hot/j1", 90, 0x979c9dd80a407a87, 0, 169),
    ("LeftAnti/hot/j1", 0, 0xcbf29ce484222325, 0, 169),
    ("Inner/hot/j2", 2945, 0xf8e0430f4f13c670, 10, 168),
    ("LeftOuter/hot/j2", 2966, 0xf7c88c89f5334b39, 10, 168),
    ("RightOuter/hot/j2", 2948, 0xd4c3a1bae906c6f2, 10, 168),
    ("FullOuter/hot/j2", 2969, 0x54878ff9cb5a0623, 10, 168),
    ("LeftSemi/hot/j2", 69, 0xb8c7d5223db38132, 10, 168),
    ("LeftAnti/hot/j2", 21, 0x8bf54daeeb69d57c, 10, 168),
    ("Inner/left_empty/j2", 0, 0xcbf29ce484222325, 0, 0),
    ("LeftOuter/left_empty/j2", 0, 0xcbf29ce484222325, 0, 0),
    ("RightOuter/left_empty/j2", 60, 0xaedccdc89c0fe208, 0, 0),
    ("FullOuter/left_empty/j2", 60, 0xaedccdc89c0fe208, 0, 0),
    ("LeftSemi/left_empty/j2", 0, 0xcbf29ce484222325, 0, 0),
    ("LeftAnti/left_empty/j2", 0, 0xcbf29ce484222325, 0, 0),
    ("Inner/right_empty/j2", 0, 0xcbf29ce484222325, 0, 0),
    ("LeftOuter/right_empty/j2", 60, 0x5ff756529e809dbb, 0, 0),
    ("RightOuter/right_empty/j2", 0, 0xcbf29ce484222325, 0, 0),
    ("FullOuter/right_empty/j2", 60, 0x5ff756529e809dbb, 0, 0),
    ("LeftSemi/right_empty/j2", 0, 0xcbf29ce484222325, 0, 0),
    ("LeftAnti/right_empty/j2", 60, 0x7ce146046e9a18db, 0, 0),
    ("Inner/left_ends_early/j2", 129, 0xab1e4ae69b440254, 4, 78),
    ("LeftOuter/left_ends_early/j2", 132, 0x75d96eb7bb701f29, 4, 78),
    ("RightOuter/left_ends_early/j2", 170, 0xfe0b4848edac16d0, 4, 78),
    ("FullOuter/left_ends_early/j2", 173, 0x5f4332f131755ebd, 4, 78),
    ("LeftSemi/left_ends_early/j2", 47, 0x9350ac9ef7214929, 4, 78),
    ("LeftAnti/left_ends_early/j2", 3, 0x855ebb8b0da7ad91, 4, 78),
    ("Inner/right_ends_early/j2", 87, 0x4933a02b2badc101, 4, 71),
    ("LeftOuter/right_ends_early/j2", 136, 0xb52fe7db1fc4cdc6, 4, 71),
    ("RightOuter/right_ends_early/j2", 94, 0x51a48204cf0e6981, 4, 71),
    ("FullOuter/right_ends_early/j2", 143, 0xfec0ad95c49f3a46, 4, 71),
    ("LeftSemi/right_ends_early/j2", 21, 0xbca928da93c282f1, 4, 71),
    ("LeftAnti/right_ends_early/j2", 49, 0x05f9fdf5c39a4168, 4, 71),
];

#[rustfmt::skip]
const SERIAL_SET_OPS: &[(&str, usize, u64, u64, u64)] = &[
    ("Union/asc", 30, 0x276c09c3f7c391f5, 10, 169),
    ("UnionAll/asc", 170, 0xf4ca1f78011da974, 10, 169),
    ("Intersect/asc", 26, 0x7e90772578999072, 10, 169),
    ("IntersectAll/asc", 61, 0x5459e2f60c979444, 10, 169),
    ("Except/asc", 3, 0x207d4757fa022cf6, 10, 169),
    ("ExceptAll/asc", 29, 0x641e54932401588f, 10, 169),
    ("Union/desc", 30, 0x45bccd2619950471, 10, 165),
    ("UnionAll/desc", 170, 0x22ae85a5f80c64f7, 10, 165),
    ("Intersect/desc", 26, 0x13fea6a5ec877e11, 10, 165),
    ("IntersectAll/desc", 51, 0xa1dfe243fa330440, 10, 165),
    ("Except/desc", 3, 0x6b5a69a8857b1e03, 10, 165),
    ("ExceptAll/desc", 39, 0x394394791fe79dad, 10, 165),
    ("Union/mixed", 30, 0x66a4d436aadeb99d, 10, 166),
    ("UnionAll/mixed", 170, 0xf74ad94a7ee8e369, 10, 166),
    ("Intersect/mixed", 25, 0x5624bd52009a2eb1, 10, 166),
    ("IntersectAll/mixed", 57, 0x68c5eb7d136f6206, 10, 166),
    ("Except/mixed", 4, 0x4b02925de75f1da4, 10, 166),
    ("ExceptAll/mixed", 33, 0x01f34b0f7ae49a49, 10, 166),
    ("Union/hot", 24, 0x9718907325fb30d5, 9, 168),
    ("UnionAll/hot", 170, 0x907d496dbf24306d, 9, 168),
    ("Intersect/hot", 12, 0xef0ce436343edf08, 9, 168),
    ("IntersectAll/hot", 65, 0x5ebd5a319ccb85a0, 9, 168),
    ("Except/hot", 8, 0x5d0106e6d6425757, 9, 168),
    ("ExceptAll/hot", 25, 0x1373b8e43e353b52, 9, 168),
    ("Union/left_empty", 24, 0x8c76f5327a549ef0, 0, 0),
    ("UnionAll/left_empty", 60, 0x96608cfc3454e6c1, 0, 0),
    ("Intersect/left_empty", 0, 0xcbf29ce484222325, 0, 0),
    ("IntersectAll/left_empty", 0, 0xcbf29ce484222325, 0, 0),
    ("Except/left_empty", 0, 0xcbf29ce484222325, 0, 0),
    ("ExceptAll/left_empty", 0, 0xcbf29ce484222325, 0, 0),
    ("Union/right_empty", 24, 0x59ff49889d4882de, 0, 0),
    ("UnionAll/right_empty", 60, 0x739fa840c2886c66, 0, 0),
    ("Intersect/right_empty", 0, 0xcbf29ce484222325, 0, 0),
    ("IntersectAll/right_empty", 0, 0xcbf29ce484222325, 0, 0),
    ("Except/right_empty", 24, 0x59ff49889d4882de, 0, 0),
    ("ExceptAll/right_empty", 60, 0x739fa840c2886c66, 0, 0),
    ("Union/left_ends_early", 30, 0x276c09c3f7c391f5, 4, 69),
    ("UnionAll/left_ends_early", 120, 0xb43f423a877ce6fb, 4, 69),
    ("Intersect/left_ends_early", 10, 0x6b930e48dd48bd87, 4, 69),
    ("IntersectAll/left_ends_early", 16, 0x431b5c73544dd077, 4, 69),
    ("Except/left_ends_early", 2, 0xbb7a33783d9c3225, 4, 69),
    ("ExceptAll/left_ends_early", 34, 0xb4822eb9619a0a3c, 4, 69),
    ("Union/right_ends_early", 28, 0x3dbbc50b414a7bf7, 4, 75),
    ("UnionAll/right_ends_early", 120, 0x8f8cfcdab42eff3d, 4, 75),
    ("Intersect/right_ends_early", 12, 0x9a15442ddfd3c785, 4, 75),
    ("IntersectAll/right_ends_early", 23, 0x64b29fd2e3e70f27, 4, 75),
    ("Except/right_ends_early", 16, 0xc86d77818496b817, 4, 75),
    ("ExceptAll/right_ends_early", 47, 0x08946da61d7231fd, 4, 75),
];

#[rustfmt::skip]
const PLANNED_JOINS: &[(&str, usize, u64, u64, u64)] = &[
    ("Inner/asc/j1/dop2/exchanges3", 716, 0x00a546b8861aae5d, 0, 876),
    ("LeftOuter/asc/j1/dop2/exchanges3", 716, 0x00a546b8861aae5d, 0, 876),
    ("RightOuter/asc/j1/dop2/exchanges3", 716, 0x00a546b8861aae5d, 0, 876),
    ("FullOuter/asc/j1/dop2/exchanges3", 716, 0x00a546b8861aae5d, 0, 876),
    ("LeftSemi/asc/j1/dop2/exchanges3", 90, 0x1315da97c1c32948, 0, 250),
    ("LeftAnti/asc/j1/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 160),
    ("Inner/asc/j2/dop2/exchanges3", 241, 0x32d6bd54f658c9d9, 26, 403),
    ("LeftOuter/asc/j2/dop2/exchanges3", 252, 0x377e2cc201d834cb, 27, 414),
    ("RightOuter/asc/j2/dop2/exchanges3", 242, 0x26b6e6a71120af46, 26, 404),
    ("FullOuter/asc/j2/dop2/exchanges3", 253, 0x63149346e88336a8, 27, 415),
    ("LeftSemi/asc/j2/dop2/exchanges3", 79, 0xf19f22329fdd90ce, 26, 241),
    ("LeftAnti/asc/j2/dop2/exchanges3", 11, 0x2f8c2d15f958884f, 19, 173),
    ("Inner/desc/j2/dop2/exchanges3", 267, 0xb575af6abe01f244, 28, 432),
    ("LeftOuter/desc/j2/dop2/exchanges3", 270, 0x60c8c68624feb260, 28, 435),
    ("RightOuter/desc/j2/dop2/exchanges3", 272, 0x25381fa0b35651f0, 28, 437),
    ("FullOuter/desc/j2/dop2/exchanges3", 275, 0xdd9c5dd6ee861de4, 28, 440),
    ("LeftSemi/desc/j2/dop2/exchanges3", 87, 0x699c6787efc6fe2a, 28, 252),
    ("LeftAnti/desc/j2/dop2/exchanges3", 3, 0xd646266c3f496923, 19, 168),
    ("Inner/mixed/j1/dop2/exchanges0", 675, 0xb562b3163b191425, 0, 156),
    ("LeftOuter/mixed/j1/dop2/exchanges0", 675, 0xb562b3163b191425, 0, 156),
    ("RightOuter/mixed/j1/dop2/exchanges0", 675, 0xb562b3163b191425, 0, 156),
    ("FullOuter/mixed/j1/dop2/exchanges0", 675, 0xb562b3163b191425, 0, 156),
    ("LeftSemi/mixed/j1/dop2/exchanges0", 90, 0x1ba54ab679e5f0e0, 0, 156),
    ("LeftAnti/mixed/j1/dop2/exchanges0", 0, 0xcbf29ce484222325, 0, 156),
    ("Inner/mixed/j2/dop2/exchanges3", 227, 0xba99e2f5d1948b1b, 178, 1828),
    ("LeftOuter/mixed/j2/dop2/exchanges3", 228, 0xe40422c51a2f1574, 178, 1829),
    ("RightOuter/mixed/j2/dop2/exchanges3", 237, 0x0a8e8f1ded713cc3, 178, 1838),
    ("FullOuter/mixed/j2/dop2/exchanges3", 238, 0x837b2a7f8ed7ddec, 178, 1839),
    ("LeftSemi/mixed/j2/dop2/exchanges3", 89, 0x7edb754c41bf57e0, 178, 1690),
    ("LeftAnti/mixed/j2/dop2/exchanges3", 1, 0xdb529d729c3ab09d, 169, 1602),
    ("Inner/hot/j1/dop2/exchanges3", 3223, 0x1ebd323a93edc77c, 0, 3392),
    ("LeftOuter/hot/j1/dop2/exchanges3", 3223, 0x1ebd323a93edc77c, 0, 3392),
    ("RightOuter/hot/j1/dop2/exchanges3", 3223, 0x1ebd323a93edc77c, 0, 3392),
    ("FullOuter/hot/j1/dop2/exchanges3", 3223, 0x1ebd323a93edc77c, 0, 3392),
    ("LeftSemi/hot/j1/dop2/exchanges3", 90, 0x979c9dd80a407a87, 0, 259),
    ("LeftAnti/hot/j1/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 169),
    ("Inner/hot/j2/dop2/exchanges3", 2945, 0xf8e0430f4f13c670, 15, 3107),
    ("LeftOuter/hot/j2/dop2/exchanges3", 2966, 0xf7c88c89f5334b39, 19, 3128),
    ("RightOuter/hot/j2/dop2/exchanges3", 2948, 0xd4c3a1bae906c6f2, 16, 3110),
    ("FullOuter/hot/j2/dop2/exchanges3", 2969, 0x54878ff9cb5a0623, 21, 3131),
    ("LeftSemi/hot/j2/dop2/exchanges3", 69, 0xb8c7d5223db38132, 15, 231),
    ("LeftAnti/hot/j2/dop2/exchanges3", 21, 0x8bf54daeeb69d57c, 13, 183),
    ("Inner/left_empty/j2/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("LeftOuter/left_empty/j2/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("RightOuter/left_empty/j2/dop2/exchanges3", 60, 0xcde1a08a38817f88, 7, 61),
    ("FullOuter/left_empty/j2/dop2/exchanges3", 60, 0xcde1a08a38817f88, 7, 61),
    ("LeftSemi/left_empty/j2/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("LeftAnti/left_empty/j2/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("Inner/right_empty/j2/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("LeftOuter/right_empty/j2/dop2/exchanges3", 60, 0x7ce146046e9a18db, 8, 61),
    ("RightOuter/right_empty/j2/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("FullOuter/right_empty/j2/dop2/exchanges3", 60, 0x7ce146046e9a18db, 8, 61),
    ("LeftSemi/right_empty/j2/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("LeftAnti/right_empty/j2/dop2/exchanges3", 60, 0x7ce146046e9a18db, 8, 61),
    ("Inner/left_ends_early/j2/dop2/exchanges3", 129, 0xab1e4ae69b440254, 12, 207),
    ("LeftOuter/left_ends_early/j2/dop2/exchanges3", 132, 0x75d96eb7bb701f29, 12, 210),
    ("RightOuter/left_ends_early/j2/dop2/exchanges3", 170, 0xfe0b4848edac16d0, 17, 248),
    ("FullOuter/left_ends_early/j2/dop2/exchanges3", 173, 0x5f4332f131755ebd, 17, 251),
    ("LeftSemi/left_ends_early/j2/dop2/exchanges3", 47, 0x9350ac9ef7214929, 12, 125),
    ("LeftAnti/left_ends_early/j2/dop2/exchanges3", 3, 0x855ebb8b0da7ad91, 8, 81),
    ("Inner/right_ends_early/j2/dop2/exchanges3", 87, 0x4933a02b2badc101, 11, 159),
    ("LeftOuter/right_ends_early/j2/dop2/exchanges3", 136, 0xb52fe7db1fc4cdc6, 16, 208),
    ("RightOuter/right_ends_early/j2/dop2/exchanges3", 94, 0x51a48204cf0e6981, 12, 166),
    ("FullOuter/right_ends_early/j2/dop2/exchanges3", 143, 0xfec0ad95c49f3a46, 16, 215),
    ("LeftSemi/right_ends_early/j2/dop2/exchanges3", 21, 0xbca928da93c282f1, 11, 93),
    ("LeftAnti/right_ends_early/j2/dop2/exchanges3", 49, 0x05f9fdf5c39a4168, 12, 121),
];

#[rustfmt::skip]
const PLANNED_SET_OPS: &[(&str, usize, u64, u64, u64)] = &[
    ("Union/asc/dop2/exchanges3", 30, 0x276c09c3f7c391f5, 26, 198),
    ("UnionAll/asc/dop2/exchanges3", 170, 0xf4ca1f78011da974, 26, 338),
    ("Intersect/asc/dop2/exchanges3", 26, 0x7e90772578999072, 23, 194),
    ("IntersectAll/asc/dop2/exchanges3", 61, 0x5459e2f60c979444, 23, 229),
    ("Except/asc/dop2/exchanges3", 3, 0x207d4757fa022cf6, 17, 171),
    ("ExceptAll/asc/dop2/exchanges3", 29, 0x641e54932401588f, 21, 197),
    ("Union/desc/dop2/exchanges3", 30, 0x276c09c3f7c391f5, 176, 1417),
    ("UnionAll/desc/dop2/exchanges3", 170, 0xc095ce173e601e03, 26, 336),
    ("Intersect/desc/dop2/exchanges3", 26, 0x7c9744e1e23e1ff6, 174, 1413),
    ("IntersectAll/desc/dop2/exchanges3", 51, 0x8fe68d2ee33d39e7, 24, 217),
    ("Except/desc/dop2/exchanges3", 3, 0xa1a591425c6b4e75, 167, 1390),
    ("ExceptAll/desc/dop2/exchanges3", 39, 0xbd97358a2b2bee2f, 20, 205),
    ("Union/mixed/dop2/exchanges3", 30, 0x276c09c3f7c391f5, 176, 1415),
    ("UnionAll/mixed/dop2/exchanges3", 170, 0xc0e800e5d6e18755, 176, 1775),
    ("Intersect/mixed/dop2/exchanges3", 25, 0x954bc7e7a92c9334, 173, 1410),
    ("IntersectAll/mixed/dop2/exchanges3", 57, 0x541ee9f71108d017, 173, 1662),
    ("Except/mixed/dop2/exchanges3", 4, 0x4b02925de75f1da4, 167, 1389),
    ("ExceptAll/mixed/dop2/exchanges3", 33, 0xddc9030ab55f2829, 170, 1638),
    ("Union/hot/dop2/exchanges3", 24, 0x9718907325fb30d5, 20, 190),
    ("UnionAll/hot/dop2/exchanges3", 170, 0x907d496dbf24306d, 20, 336),
    ("Intersect/hot/dop2/exchanges3", 12, 0xef0ce436343edf08, 18, 178),
    ("IntersectAll/hot/dop2/exchanges3", 65, 0x5ebd5a319ccb85a0, 18, 231),
    ("Except/hot/dop2/exchanges3", 8, 0x5d0106e6d6425757, 15, 174),
    ("ExceptAll/hot/dop2/exchanges3", 25, 0x1373b8e43e353b52, 16, 191),
    ("Union/left_empty/dop2/exchanges3", 24, 0x8c76f5327a549ef0, 6, 25),
    ("UnionAll/left_empty/dop2/exchanges3", 60, 0x96608cfc3454e6c1, 6, 61),
    ("Intersect/left_empty/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("IntersectAll/left_empty/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("Except/left_empty/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("ExceptAll/left_empty/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("Union/right_empty/dop2/exchanges3", 24, 0x59ff49889d4882de, 8, 25),
    ("UnionAll/right_empty/dop2/exchanges3", 60, 0x739fa840c2886c66, 8, 61),
    ("Intersect/right_empty/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("IntersectAll/right_empty/dop2/exchanges3", 0, 0xcbf29ce484222325, 0, 1),
    ("Except/right_empty/dop2/exchanges3", 24, 0x59ff49889d4882de, 8, 25),
    ("ExceptAll/right_empty/dop2/exchanges3", 60, 0x739fa840c2886c66, 8, 61),
    ("Union/left_ends_early/dop2/exchanges3", 30, 0x276c09c3f7c391f5, 16, 100),
    ("UnionAll/left_ends_early/dop2/exchanges3", 120, 0xb43f423a877ce6fb, 16, 190),
    ("Intersect/left_ends_early/dop2/exchanges3", 10, 0x6b930e48dd48bd87, 10, 80),
    ("IntersectAll/left_ends_early/dop2/exchanges3", 16, 0x431b5c73544dd077, 10, 86),
    ("Except/left_ends_early/dop2/exchanges3", 2, 0xbb7a33783d9c3225, 7, 72),
    ("ExceptAll/left_ends_early/dop2/exchanges3", 34, 0xb4822eb9619a0a3c, 10, 104),
    ("Union/right_ends_early/dop2/exchanges3", 28, 0x3dbbc50b414a7bf7, 16, 104),
    ("UnionAll/right_ends_early/dop2/exchanges3", 120, 0x8f8cfcdab42eff3d, 16, 196),
    ("Intersect/right_ends_early/dop2/exchanges3", 12, 0x9a15442ddfd3c785, 12, 88),
    ("IntersectAll/right_ends_early/dop2/exchanges3", 23, 0x64b29fd2e3e70f27, 12, 99),
    ("Except/right_ends_early/dop2/exchanges3", 16, 0xc86d77818496b817, 12, 92),
    ("ExceptAll/right_ends_early/dop2/exchanges3", 47, 0x08946da61d7231fd, 12, 123),
];
