//! Figures 1–3: a tree-of-losers priority queue merging sorted string
//! runs, with offset-value codes deciding the comparisons.
//!
//! The paper's figures show twelve runs of three-character strings; the
//! right half (runs 8–11, visible in Figure 1) contains the keys 061,
//! 087, 092, 154, 503 discussed in the text.  Strings become rows with
//! one column per character, so the walkthrough in Section 3 — "092"
//! rising past "503" and losing to "087" with *zero* string comparisons —
//! can be traced in the comparison counters.
//!
//! Run with: `cargo run --release --example tree_of_losers_demo`

use std::sync::Arc;

use ovc_core::{Row, SortSpec, Stats};
use ovc_sort::{FlatMerge, Run};

/// A 3-character string as a row of char columns.
fn key(s: &str) -> Row {
    Row::new(s.chars().map(|c| c.to_digit(10).unwrap() as u64).collect())
}

fn show(row: &Row) -> String {
    row.cols().iter().map(|c| c.to_string()).collect()
}

fn main() {
    println!("=== Tree-of-losers priority queue (Figures 1-3) ===\n");

    // Four sorted runs modelled on the right half of Figure 1: the merge
    // first produces "061"; its successor "092" then rises along the same
    // leaf-to-root path past "503" and loses to "087".
    let runs: Vec<Vec<Row>> = vec![
        vec![key("154"), key("170"), key("426")],
        vec![key("087"), key("170"), key("817")],
        vec![key("503"), key("612")],
        vec![key("061"), key("092"), key("512")],
    ];

    let stats = Stats::new_shared();
    let coded: Vec<Run> = runs
        .iter()
        .map(|r| Run::from_sorted_rows(r.clone(), 3))
        .collect();
    let tree = FlatMerge::new(coded, SortSpec::asc(3), Arc::clone(&stats));

    println!("merging {} runs of 3-character strings\n", runs.len());
    println!(
        "{:<8} {:>8} {:>7} {:>14} {:>14}",
        "output", "offset", "value", "code-cmps", "col-cmps"
    );
    let mut before = stats.snapshot();
    for out in tree {
        let delta = stats.snapshot().since(&before);
        before = stats.snapshot();
        println!(
            "{:<8} {:>8} {:>7} {:>14} {:>14}",
            show(&out.row),
            if out.code.is_duplicate() {
                3
            } else {
                out.code.offset(3)
            },
            if out.code.is_duplicate() {
                "-".to_string()
            } else {
                out.code.value().to_string()
            },
            delta.ovc_cmps,
            delta.col_value_cmps,
        );
    }

    let total = stats.snapshot();
    println!(
        "\ntotals: {} code comparisons, {} column comparisons for {} rows x 3 columns",
        total.ovc_cmps,
        total.col_value_cmps,
        runs.iter().map(Vec::len).sum::<usize>(),
    );
    println!(
        "the N x K bound ({}) holds with room to spare — \"offset-value codes\ndecide many comparisons in a tree-of-losers priority queue\" (Section 3)",
        runs.iter().map(Vec::len).sum::<usize>() * 3
    );

    // The Section 3 walkthrough, replayed precisely.
    println!("\n=== Section 3 walkthrough: the pass after \"061\" ===\n");
    let stats = Stats::default();
    let winner = key("061");
    let k092 = key("092");
    let k503 = key("503");
    let k087 = key("087");
    let k154 = key("154");
    let mut c092 = ovc_core::compare::derive_code(winner.key(3), k092.key(3), &stats);
    let mut c503 = ovc_core::compare::derive_code(winner.key(3), k503.key(3), &stats);
    let mut c087 = ovc_core::compare::derive_code(winner.key(3), k087.key(3), &stats);
    let mut c154 = ovc_core::compare::derive_code(winner.key(3), k154.key(3), &stats);
    let col_cmps_before = stats.col_value_cmps();

    use ovc_core::compare::compare_same_base;
    let o1 = compare_same_base(k092.key(3), k503.key(3), &mut c092, &mut c503, &stats);
    println!(
        "\"092\" vs \"503\": offsets 1 vs 0 decide -> {:?} (\"092\" wins)",
        o1
    );
    let o2 = compare_same_base(k092.key(3), k087.key(3), &mut c092, &mut c087, &stats);
    println!(
        "\"092\" vs \"087\": equal offsets, values 9 vs 8 decide -> {:?} (\"087\" wins)",
        o2
    );
    let o3 = compare_same_base(k087.key(3), k154.key(3), &mut c087, &mut c154, &stats);
    println!(
        "\"087\" vs \"154\": offsets 1 vs 0 decide -> {:?} (\"087\" reaches the root)",
        o3
    );
    println!(
        "\ncolumn comparisons used in this leaf-to-root pass: {}",
        stats.col_value_cmps() - col_cmps_before
    );
    println!("\"Not a single string comparison is required and not a single");
    println!("offset-value code needs re-calculation.\" — Section 3");
}
