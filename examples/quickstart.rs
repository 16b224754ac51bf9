//! Quickstart: offset-value codes on the paper's own running example.
//!
//! Reproduces Table 1 (code derivation in a sorted stream), Table 3
//! (codes after a filter), and shows the basic sort → dedup → group
//! pipeline carrying codes between operators.
//!
//! Run with: `cargo run --release --example quickstart`

use ovc_core::derive::derive_codes;
use ovc_core::desc::{derive_desc_code, DescOvc};
use ovc_core::{table1, BatchStream, ExecError, Row, Stats, Value};
use ovc_exec::{Aggregate, BatchDedup, BatchFilter, GroupAggregate};
use ovc_sort::Run;

fn main() -> Result<(), ExecError> {
    println!("=== Table 1: offset-value codes in a sorted stream ===\n");
    let rows = table1::rows();
    let asc = derive_codes(&rows, table1::ARITY);
    let stats = Stats::default();

    println!(
        "{:<16} {:>6} {:>9} {:>8} {:>9} {:>8}",
        "row", "offset", "desc-code", "", "asc-code", ""
    );
    println!(
        "{:<16} {:>6} {:>9} {:>8} {:>9} {:>8}",
        "", "", "(paper)", "", "(paper)", "(u64)"
    );
    let mut prev: Option<&Row> = None;
    for (row, code) in rows.iter().zip(&asc) {
        let desc = match prev {
            None => DescOvc::initial(row.key(4)),
            Some(p) => derive_desc_code(p.key(4), row.key(4), &stats),
        };
        println!(
            "{:<16} {:>6} {:>9} {:>8} {:>9} {:#8x}",
            format!("{:?}", row.cols()),
            code.offset(4),
            desc.paper_decimal(4, table1::DOMAIN),
            "",
            code.paper_decimal(),
            code.raw(),
        );
        prev = Some(row);
    }

    println!("\n=== Table 3: codes after a filter (keep first & last row) ===\n");
    // The filter reads flat batches too: the sorted rows as one coded
    // run, cut every 4 rows.
    let keep = [rows[0].cols(), rows[6].cols()];
    let input = Run::from_sorted_rows(rows.clone(), 4).batches(4);
    let mut filtered = BatchFilter::new(
        input,
        |row: &[Value]| keep.contains(&row),
        Stats::new_shared(),
    );
    while let Some(batch) = filtered.next_batch()? {
        for (row, code) in batch.iter() {
            println!(
                "{:<16} asc-code {:>4}  (offset {})",
                format!("{row:?}"),
                code.paper_decimal(),
                code.offset(4)
            );
        }
    }

    println!("\n=== Duplicate removal by code inspection ===\n");
    let mut distinct = BatchDedup::new(
        Run::from_sorted_rows(rows.clone(), 4).batches(4),
        Stats::new_shared(),
    );
    let mut distinct_rows = 0;
    while let Some(batch) = distinct.next_batch()? {
        distinct_rows += batch.len();
    }
    println!(
        "{} rows in, {} rows out — the duplicate (5,9,2,7) was found by the\nsingle integer test `offset == arity`, no column comparisons.",
        rows.len(),
        distinct_rows
    );

    println!("\n=== Grouping on the first two columns ===\n");
    // The grouping kernel reads flat batches: here, the sorted rows as one
    // coded run cut every 4 rows (a group may straddle the seam).
    let input = Run::from_sorted_rows(rows, 4).batches(4);
    let mut groups = GroupAggregate::new(input, 2, vec![Aggregate::Count], 4, Stats::new_shared());
    while let Some(batch) = groups.next_batch()? {
        for (row, code) in batch.iter() {
            println!(
                "group {:?} -> count {}  (output code offset {})",
                &row[..2],
                row[2],
                code.offset(2)
            );
        }
    }
    println!("\nGroup boundaries were detected by `offset < 2` on input codes —");
    println!("the mechanism Figure 4 of the paper benchmarks.");
    Ok(())
}
