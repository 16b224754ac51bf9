//! The `ovc-server` binary: serve the query engine over HTTP/1.1.
//!
//! ```text
//! ovc-server [--addr HOST:PORT] [--max-sessions N] [--batch-rows N]
//!            [--dop N] [--rate-per-second N] [--rate-burst N]
//!            [--read-timeout-ms N] [--seed-tables]
//! ```
//!
//! `--seed-tables` registers the paper's Figure-5 intersect tables
//! (`t1`, `t2`, 10k rows each, stored sorted so scans stream exact
//! codes) so smoke tests can query without a registration step.  The
//! process exits cleanly on `POST /shutdown` after draining in-flight
//! queries.

use ovc_core::Row;
use ovc_plan::{Catalog, PlannerConfig, Table};
use ovc_server::{RateLimitConfig, Server, ServerConfig};

/// One Figure-5 intersect input: `rows` single-column rows drawn from
/// `0..rows` (so a good fraction of two such tables intersects), stored
/// sorted.  SplitMix64 over `state` keeps the tables the same on every
/// boot.
fn intersect_table(rows: u64, state: &mut u64) -> Table {
    let mut values: Vec<Row> = (0..rows)
        .map(|_| {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            Row::new(vec![(z ^ (z >> 31)) % rows])
        })
        .collect();
    values.sort();
    Table::sorted(values, 1)
}

fn usage() -> ! {
    eprintln!(
        "usage: ovc-server [--addr HOST:PORT] [--max-sessions N] [--batch-rows N] \
         [--dop N] [--rate-per-second N] [--rate-burst N] [--read-timeout-ms N] \
         [--seed-tables]"
    );
    std::process::exit(2)
}

fn main() {
    let mut config = ServerConfig::default();
    let mut rate = RateLimitConfig::default();
    let mut planner = PlannerConfig::default().with_batch_size(1024);
    let mut seed_tables = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value ({what})");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("host:port"),
            "--max-sessions" => match value("count").parse() {
                Ok(n) => config.max_sessions = n,
                Err(_) => usage(),
            },
            "--batch-rows" => match value("rows").parse() {
                Ok(n) => config.batch_rows = n,
                Err(_) => usage(),
            },
            "--dop" => match value("threads").parse() {
                Ok(n) => planner = planner.with_dop(n),
                Err(_) => usage(),
            },
            "--rate-per-second" => match value("tokens").parse() {
                Ok(n) => rate.per_second = n,
                Err(_) => usage(),
            },
            "--rate-burst" => match value("tokens").parse() {
                Ok(n) => rate.burst = n,
                Err(_) => usage(),
            },
            "--read-timeout-ms" => match value("milliseconds").parse() {
                Ok(n) => config.read_timeout = std::time::Duration::from_millis(n),
                Err(_) => usage(),
            },
            "--seed-tables" => seed_tables = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    config.rate_limit = rate;
    config.planner = planner;

    let mut catalog = Catalog::new();
    if seed_tables {
        let mut state = 42;
        catalog.register("t1", intersect_table(10_000, &mut state));
        catalog.register("t2", intersect_table(10_000, &mut state));
        eprintln!("seeded tables t1, t2 (Figure-5 intersect workload, 10k rows each)");
    }

    let server = match Server::bind(config, catalog) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1)
        }
    };
    eprintln!("ovc-server listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1)
    }
    eprintln!("ovc-server drained and stopped");
}
