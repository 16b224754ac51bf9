//! The wire protocol: JSON on the request side, newline-delimited JSON
//! frames on the response side.
//!
//! Requests carry a [`LogicalPlan`] as nested single-key objects (the
//! builder API, spelled in JSON — see [`parse_plan`]); responses stream
//! frames of three kinds: one `header`, zero or more `batch` frames of
//! [`crate::ServerConfig::batch_rows`] rows each (the last may be
//! short), and one `trailer` — or an `error` frame in its place.
//!
//! Every frame writer *appends* to a caller's `String` and allocates
//! nothing else: the server encodes each frame into one buffer its
//! session owns and reuses across requests, so once that buffer has
//! grown to the largest frame, encoding allocates nothing at all
//! (`tests/frame_allocations.rs` counts).  A `batch` frame can be built
//! in pieces ([`batch_frame_open`], [`batch_frame_rows`],
//! [`batch_frame_close`]) because its rows arrive in the executor's
//! batches, which need not line up with the frames.
//!
//! ## Why codes travel as strings
//!
//! Offset-value codes are `u64` values with bit 62 set (the *valid* tag),
//! so every code exceeds 2^62 — far past the 2^53 range where an `f64`
//! (and therefore a JSON number in every mainstream parser) is exact.
//! Frames print codes and row values as decimal **strings** with
//! [`ovc_json::write_u64`]; clients parse them back with integer
//! parsers and lose nothing.  Inbound numeric literals (predicates, table
//! rows) pass through `f64` and are exact only up to 2^53, which the
//! protocol documents as its input domain.

use ovc_core::{Direction, Ovc, Row, SortSpec, StatsSnapshot, Value};
use ovc_json::{write_str, write_u64, Json};
use ovc_plan::{Aggregate, JoinType, LogicalPlan, Predicate, SetOp, Table};

/// A request-side failure: the payload could not be understood.  Maps to
/// HTTP 400 with the message in the body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// Exact-integer check: inbound numbers must be non-negative integers
/// representable exactly in `f64` (≤ 2^53), because they travel as JSON
/// numbers.
fn as_u64(j: &Json, what: &str) -> Result<u64, WireError> {
    let n = j
        .as_num()
        .ok_or_else(|| WireError(format!("{what}: expected a number, got {j:?}")))?;
    if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
        return err(format!("{what}: {n} is not an exact non-negative integer"));
    }
    Ok(n as u64)
}

fn as_usize(j: &Json, what: &str) -> Result<usize, WireError> {
    Ok(as_u64(j, what)? as usize)
}

fn get<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a Json, WireError> {
    obj.get(key)
        .ok_or_else(|| WireError(format!("{what}: missing field {key:?}")))
}

/// The single key/value pair of a one-entry object — the shape every
/// plan node and predicate uses.
fn single_entry<'a>(j: &'a Json, what: &str) -> Result<(&'a str, &'a Json), WireError> {
    match j {
        Json::Obj(members) if members.len() == 1 => Ok((members[0].0.as_str(), &members[0].1)),
        Json::Obj(members) => err(format!(
            "{what}: expected a single-key object, got {} keys",
            members.len()
        )),
        other => err(format!("{what}: expected an object, got {other:?}")),
    }
}

/// Parse a predicate.
///
/// Leaves are `{"eq":[col,value]}`, `"ne"`, `"lt"`, `"le"`, `"gt"`,
/// `"ge"`; combinators are `{"and":[p,q]}` and `{"or":[p,q]}`.
pub fn parse_predicate(j: &Json) -> Result<Predicate, WireError> {
    let (key, body) = single_entry(j, "predicate")?;
    let pair = |what: &str| -> Result<(usize, Value), WireError> {
        let Some(arr) = body.as_arr() else {
            return err(format!("predicate {what}: expected [col, value]"));
        };
        if arr.len() != 2 {
            return err(format!("predicate {what}: expected exactly [col, value]"));
        }
        Ok((
            as_usize(&arr[0], "column index")?,
            as_u64(&arr[1], "value")?,
        ))
    };
    let sub = |what: &str| -> Result<(Predicate, Predicate), WireError> {
        let Some(arr) = body.as_arr() else {
            return err(format!("predicate {what}: expected [pred, pred]"));
        };
        if arr.len() != 2 {
            return err(format!(
                "predicate {what}: expected exactly two sub-predicates"
            ));
        }
        Ok((parse_predicate(&arr[0])?, parse_predicate(&arr[1])?))
    };
    match key {
        "eq" => pair("eq").map(|(c, v)| Predicate::ColEq(c, v)),
        "ne" => pair("ne").map(|(c, v)| Predicate::ColNe(c, v)),
        "lt" => pair("lt").map(|(c, v)| Predicate::ColLt(c, v)),
        "le" => pair("le").map(|(c, v)| Predicate::ColLe(c, v)),
        "gt" => pair("gt").map(|(c, v)| Predicate::ColGt(c, v)),
        "ge" => pair("ge").map(|(c, v)| Predicate::ColGe(c, v)),
        "and" => sub("and").map(|(a, b)| a.and(b)),
        "or" => sub("or").map(|(a, b)| a.or(b)),
        other => err(format!("predicate: unknown operator {other:?}")),
    }
}

fn parse_aggregate(j: &Json) -> Result<Aggregate, WireError> {
    if let Some("count") = j.as_str() {
        return Ok(Aggregate::Count);
    }
    let (key, body) = single_entry(j, "aggregate")?;
    let col = as_usize(body, "aggregate column")?;
    match key {
        "sum" => Ok(Aggregate::Sum(col)),
        "min" => Ok(Aggregate::Min(col)),
        "max" => Ok(Aggregate::Max(col)),
        "first" => Ok(Aggregate::First(col)),
        "last" => Ok(Aggregate::Last(col)),
        other => err(format!("aggregate: unknown function {other:?}")),
    }
}

fn parse_join_type(j: &Json) -> Result<JoinType, WireError> {
    match j.as_str() {
        Some("inner") => Ok(JoinType::Inner),
        Some("left_outer") => Ok(JoinType::LeftOuter),
        Some("right_outer") => Ok(JoinType::RightOuter),
        Some("full_outer") => Ok(JoinType::FullOuter),
        Some("left_semi") => Ok(JoinType::LeftSemi),
        Some("left_anti") => Ok(JoinType::LeftAnti),
        other => err(format!("join type: unknown {other:?}")),
    }
}

fn parse_set_op(j: &Json) -> Result<SetOp, WireError> {
    match j.as_str() {
        Some("union") => Ok(SetOp::Union),
        Some("union_all") => Ok(SetOp::UnionAll),
        Some("intersect") => Ok(SetOp::Intersect),
        Some("intersect_all") => Ok(SetOp::IntersectAll),
        Some("except") => Ok(SetOp::Except),
        Some("except_all") => Ok(SetOp::ExceptAll),
        other => err(format!("set op: unknown {other:?}")),
    }
}

/// Parse a sort spec: either `{"key_len": n}` (ascending prefix) or
/// `{"dirs": ["asc","desc",...]}`, optionally with `"normalized": true`.
fn parse_sort_spec(j: &Json) -> Result<SortSpec, WireError> {
    let spec = if let Some(k) = j.get("key_len") {
        SortSpec::asc(as_usize(k, "key_len")?)
    } else if let Some(dirs) = j.get("dirs") {
        let Some(arr) = dirs.as_arr() else {
            return err("sort dirs: expected an array");
        };
        let mut ds = Vec::with_capacity(arr.len());
        for d in arr {
            ds.push(match d.as_str() {
                Some("asc") => Direction::Asc,
                Some("desc") => Direction::Desc,
                other => return err(format!("sort direction: unknown {other:?}")),
            });
        }
        SortSpec::with_dirs(&ds)
    } else {
        return err("sort: expected \"key_len\" or \"dirs\"");
    };
    match j.get("normalized") {
        None => Ok(spec),
        Some(b) => match b.as_bool() {
            Some(v) => Ok(spec.with_normalized(v)),
            None => err("sort normalized: expected a boolean"),
        },
    }
}

/// Parse a logical plan from its wire form.
///
/// Every node is a single-key object; inputs nest:
///
/// ```text
/// {"scan": "t1"}
/// {"filter": {"input": ..., "pred": {"gt": [0, 3]}}}
/// {"project": {"input": ..., "cols": [1, 0]}}
/// {"join": {"left": ..., "right": ..., "join_len": 1, "type": "inner"}}
/// {"group_by": {"input": ..., "group_len": 1, "aggs": ["count", {"sum": 2}]}}
/// {"distinct": {"input": ...}}
/// {"set_op": {"left": ..., "right": ..., "op": "intersect"}}
/// {"sort": {"input": ..., "key_len": 2}}
/// {"sort": {"input": ..., "dirs": ["desc", "asc"], "normalized": true}}
/// {"top_k": {"input": ..., "key_len": 1, "k": 10}}
/// ```
pub fn parse_plan(j: &Json) -> Result<LogicalPlan, WireError> {
    let (key, body) = single_entry(j, "plan node")?;
    let input = |b: &Json, what: &str| parse_plan(get(b, "input", what)?);
    match key {
        "scan" => match body.as_str() {
            Some(t) => Ok(LogicalPlan::scan(t)),
            None => err("scan: expected a table name string"),
        },
        "filter" => {
            Ok(input(body, "filter")?.filter(parse_predicate(get(body, "pred", "filter")?)?))
        }
        "project" => {
            let Some(arr) = get(body, "cols", "project")?.as_arr() else {
                return err("project cols: expected an array");
            };
            let cols = arr
                .iter()
                .map(|c| as_usize(c, "project column"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(input(body, "project")?.project(cols))
        }
        "join" => Ok(parse_plan(get(body, "left", "join")?)?.join(
            parse_plan(get(body, "right", "join")?)?,
            as_usize(get(body, "join_len", "join")?, "join_len")?,
            parse_join_type(get(body, "type", "join")?)?,
        )),
        "group_by" => {
            let Some(arr) = get(body, "aggs", "group_by")?.as_arr() else {
                return err("group_by aggs: expected an array");
            };
            let aggs = arr
                .iter()
                .map(parse_aggregate)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(input(body, "group_by")?.group_by(
                as_usize(get(body, "group_len", "group_by")?, "group_len")?,
                aggs,
            ))
        }
        "distinct" => Ok(input(body, "distinct")?.distinct()),
        "set_op" => Ok(parse_plan(get(body, "left", "set_op")?)?.set_op(
            parse_plan(get(body, "right", "set_op")?)?,
            parse_set_op(get(body, "op", "set_op")?)?,
        )),
        "sort" => Ok(input(body, "sort")?.sort_by(parse_sort_spec(body)?)),
        "top_k" => Ok(input(body, "top_k")?.top_k(
            as_usize(get(body, "key_len", "top_k")?, "key_len")?,
            as_usize(get(body, "k", "top_k")?, "k")?,
        )),
        other => err(format!("plan node: unknown operator {other:?}")),
    }
}

/// Parse a table registration body:
/// `{"rows": [[...], ...]}` plus optional `"sorted_key": n` or
/// `"dirs": [...]` declaring a stored ordering (codes are derived at
/// registration, per Section 4.11), and optional `"width": n` — required
/// when `rows` is empty (an empty table cannot show its width), checked
/// against every row otherwise.
pub fn parse_table(j: &Json) -> Result<Table, WireError> {
    let Some(arr) = get(j, "rows", "table")?.as_arr() else {
        return err("table rows: expected an array of arrays");
    };
    let mut rows = Vec::with_capacity(arr.len());
    for r in arr {
        let Some(cols) = r.as_arr() else {
            return err("table row: expected an array of values");
        };
        let vals = cols
            .iter()
            .map(|v| as_u64(v, "table value"))
            .collect::<Result<Vec<_>, _>>()?;
        rows.push(Row::new(vals));
    }
    let width = match (j.get("width"), rows.first()) {
        (Some(w), _) => match as_usize(w, "table width")? {
            0 => return err("table width: a table has at least one column"),
            w => w,
        },
        (None, Some(first)) => first.width(),
        (None, None) => return err("table: \"width\" is required when \"rows\" is empty"),
    };
    if let Some(r) = rows.iter().find(|r| r.width() != width) {
        return err(format!(
            "table rows: every row must have {width} values, one has {}",
            r.width()
        ));
    }
    let spec = if j.get("sorted_key").is_some() || j.get("dirs").is_some() {
        parse_sort_spec(&rename_sorted_key(j))?
    } else {
        SortSpec::none()
    };
    if spec.len() > width {
        return err("table rows: the sort key is longer than the rows");
    }
    if !ovc_core::derive::is_sorted_spec(&rows, &spec) {
        return err(format!("table rows are not ordered under {spec}"));
    }
    Ok(Table::with_width(width, rows, spec))
}

/// `parse_sort_spec` reads `key_len`; table registration spells the same
/// idea `sorted_key`.  Bridge the two without duplicating the parser.
fn rename_sorted_key(j: &Json) -> Json {
    match j {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| {
                    let k = if k == "sorted_key" { "key_len" } else { k };
                    (k.to_string(), v.clone())
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Append `values` as a JSON array of decimal **strings** — the exact
/// u64 emission path (see the module docs on why plain numbers lose
/// bits above 2^53).
fn u64s(out: &mut String, values: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        write_u64(out, v);
        out.push('"');
    }
    out.push(']');
}

/// Append the `header` frame opening every streaming response.
pub fn header_frame(out: &mut String, request_id: &str, mode: &str, width: usize, key_len: usize) {
    out.push_str("{\"frame\":\"header\",\"request_id\":");
    write_str(out, request_id);
    out.push_str(",\"mode\":\"");
    out.push_str(mode);
    out.push_str("\",\"width\":");
    write_u64(out, width as u64);
    out.push_str(",\"key_len\":");
    write_u64(out, key_len as u64);
    out.push_str("}\n");
}

/// Append one `batch` frame: parallel `rows` / `codes` arrays (codes
/// omitted for unordered outputs), `seq` numbering batches from 0.
/// [`batch_frame_open`], [`batch_frame_rows`] and [`batch_frame_close`]
/// in one call.
pub fn batch_frame<'a>(
    out: &mut String,
    seq: u64,
    rows: impl Iterator<Item = &'a [u64]>,
    codes: Option<&[Ovc]>,
) {
    batch_frame_open(out, seq);
    batch_frame_rows(out, rows);
    batch_frame_close(out, codes);
}

/// Append the start of a `batch` frame, up to its first row.  Rows
/// follow through [`batch_frame_rows`], in as many calls as the rows
/// take to arrive; [`batch_frame_close`] ends the frame.
pub fn batch_frame_open(out: &mut String, seq: u64) {
    out.push_str("{\"frame\":\"batch\",\"seq\":");
    write_u64(out, seq);
    out.push_str(",\"rows\":[");
}

/// Append rows to the open `batch` frame at the end of `out`, encoded
/// straight from the slices they live in.
pub fn batch_frame_rows<'a>(out: &mut String, rows: impl Iterator<Item = &'a [u64]>) {
    // An open frame ends in `[` until its first row is in.
    let mut first = out.ends_with('[');
    for r in rows {
        if !first {
            out.push(',');
        }
        first = false;
        u64s(out, r.iter().copied());
    }
}

/// Close the open `batch` frame at the end of `out`, with the codes of
/// its rows for an ordered output.
pub fn batch_frame_close(out: &mut String, codes: Option<&[Ovc]>) {
    out.push(']');
    if let Some(codes) = codes {
        out.push_str(",\"codes\":");
        u64s(out, codes.iter().map(|c| c.raw()));
    }
    out.push_str("}\n");
}

/// Append the `trailer` frame closing every streaming response: total
/// rows and batches, the query's own [`StatsSnapshot`] deltas, and (in
/// analyze mode) the rendered profile.
pub fn trailer_frame(
    out: &mut String,
    rows: u64,
    batches: u64,
    stats: &StatsSnapshot,
    analyze: Option<&str>,
) {
    out.push_str("{\"frame\":\"trailer\",\"status\":\"ok\",\"rows\":");
    write_u64(out, rows);
    out.push_str(",\"batches\":");
    write_u64(out, batches);
    for (key, v) in [
        (",\"stats\":{\"col_value_cmps\":", stats.col_value_cmps),
        (",\"ovc_cmps\":", stats.ovc_cmps),
        (",\"row_cmps\":", stats.row_cmps),
        (",\"rows_spilled\":", stats.rows_spilled),
        (",\"rows_read_back\":", stats.rows_read_back),
    ] {
        out.push_str(key);
        write_u64(out, v);
    }
    out.push('}');
    if let Some(text) = analyze {
        out.push_str(",\"analyze\":");
        write_str(out, text);
    }
    out.push_str("}\n");
}

/// Append an `error` frame, for failures after the header has already
/// gone out (mid-stream the status line is spent; the frame is the only
/// channel left).
pub fn error_frame(out: &mut String, message: &str) {
    out.push_str("{\"frame\":\"error\",\"status\":\"error\",\"message\":");
    write_str(out, message);
    out.push_str("}\n");
}

/// Append an `error` frame with a machine-readable failure `reason` —
/// [`ovc_core::ctx::ExecError::reason`]: `"cancelled"`, `"timeout"`,
/// `"spill_io"`, `"spill_corruption"`, `"spill_budget"`, or
/// `"worker_panic"` — so clients can branch on the fault class without
/// parsing the human-readable message.
pub fn typed_error_frame(out: &mut String, reason: &str, message: &str) {
    out.push_str("{\"frame\":\"error\",\"status\":\"error\",\"reason\":");
    write_str(out, reason);
    out.push_str(",\"message\":");
    write_str(out, message);
    out.push_str("}\n");
}

/// A complete (non-streaming) JSON error body for pre-header failures.
pub fn error_body(request_id: &str, message: &str) -> String {
    let mut f = String::from("{\"status\":\"error\",\"request_id\":");
    write_str(&mut f, request_id);
    f.push_str(",\"message\":");
    write_str(&mut f, message);
    f.push_str("}\n");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("test JSON parses")
    }

    #[test]
    fn figure5_plan_round_trips() {
        let j = parse(
            r#"{"set_op": {"left": {"scan": "t1"}, "right": {"scan": "t2"},
                           "op": "intersect"}}"#,
        );
        let plan = parse_plan(&j).unwrap();
        let rendered = format!("{plan}");
        assert!(rendered.contains("SetOp Intersect"), "{rendered}");
        assert!(rendered.contains("Scan t1"), "{rendered}");
    }

    #[test]
    fn deep_plan_with_every_operator() {
        let j = parse(
            r#"{"top_k": {"input": {"sort": {"input": {"group_by": {
                 "input": {"join": {"left": {"filter": {"input": {"scan": "a"},
                                             "pred": {"and": [{"gt": [0, 1]}, {"le": [1, 9]}]}}},
                                    "right": {"distinct": {"input": {"scan": "b"}}},
                                    "join_len": 1, "type": "left_outer"}},
                 "group_len": 1, "aggs": ["count", {"sum": 1}, {"max": 2}]}},
                 "dirs": ["desc", "asc"], "normalized": true}},
                 "key_len": 1, "k": 5}}"#,
        );
        let plan = parse_plan(&j).unwrap();
        let rendered = format!("{plan}");
        for needle in [
            "TopK",
            "Sort",
            "GroupBy",
            "Join LeftOuter",
            "Filter",
            "Distinct",
        ] {
            assert!(rendered.contains(needle), "missing {needle}:\n{rendered}");
        }
    }

    #[test]
    fn parse_errors_name_the_problem() {
        for (src, needle) in [
            (r#"{"scan": 7}"#, "table name"),
            (r#"{"warp": {}}"#, "unknown operator"),
            (
                r#"{"filter": {"input": {"scan": "t"}}}"#,
                "missing field \"pred\"",
            ),
            (
                r#"{"filter": {"input": {"scan": "t"}, "pred": {"zz": [0,1]}}}"#,
                "unknown operator",
            ),
            (r#"{"scan": "t", "extra": 1}"#, "single-key"),
        ] {
            let e = parse_plan(&parse(src)).unwrap_err();
            assert!(e.0.contains(needle), "{src} -> {e}");
        }
    }

    #[test]
    fn rejects_inexact_numbers() {
        let e = parse_predicate(&parse(r#"{"gt": [0, 1.5]}"#)).unwrap_err();
        assert!(e.0.contains("not an exact"), "{e}");
        let e = parse_predicate(&parse(r#"{"gt": [0, 18446744073709551615]}"#)).unwrap_err();
        assert!(e.0.contains("not an exact"), "{e}");
    }

    #[test]
    fn table_registration_sorted_and_unsorted() {
        let t = parse_table(&parse(r#"{"rows": [[3,1],[1,2]]}"#)).unwrap();
        assert_eq!(t.sorted_key(), 0);
        let t = parse_table(&parse(r#"{"rows": [[1,2],[3,1]], "sorted_key": 1}"#)).unwrap();
        assert_eq!(t.sorted_key(), 1);
        assert!(t.coded().is_some());
        let e = parse_table(&parse(r#"{"rows": [[3,1],[1,2]], "sorted_key": 1}"#)).unwrap_err();
        assert!(e.0.contains("not ordered"), "{e}");
    }

    /// An empty table keeps the width it is given; without one it is
    /// refused, and a given width is checked against every row.
    #[test]
    fn table_width_is_stated_for_empty_tables_and_checked_otherwise() {
        let t = parse_table(&parse(r#"{"rows": [], "width": 3}"#)).unwrap();
        assert_eq!((t.width(), t.len(), t.sorted_key()), (3, 0, 0));
        let t = parse_table(&parse(r#"{"rows": [], "width": 2, "sorted_key": 2}"#)).unwrap();
        assert_eq!((t.width(), t.sorted_key()), (2, 2));
        let t = parse_table(&parse(r#"{"rows": [[1,2]], "width": 2}"#)).unwrap();
        assert_eq!((t.width(), t.len()), (2, 1));
        for (src, needle) in [
            (r#"{"rows": []}"#, "\"width\" is required"),
            (r#"{"rows": [], "width": 0}"#, "at least one column"),
            (
                r#"{"rows": [], "width": 1, "sorted_key": 2}"#,
                "longer than the rows",
            ),
            (
                r#"{"rows": [[1,2],[3,4]], "width": 3}"#,
                "must have 3 values",
            ),
            (r#"{"rows": [[1,2],[3]]}"#, "must have 2 values, one has 1"),
            (r#"{"rows": [[1,2]], "width": 1.5}"#, "not an exact"),
        ] {
            let e = parse_table(&parse(src)).unwrap_err();
            assert!(e.0.contains(needle), "{src} -> {e}");
        }
    }

    #[test]
    fn codes_above_2_53_survive_the_wire() {
        // A real valid-tagged code: bit 62 set, low bits distinguishable.
        let code: u64 = (1 << 62) | 12345;
        let rows = [[1u64, 2]];
        let mut frame = String::new();
        batch_frame(
            &mut frame,
            0,
            rows.iter().map(|r| &r[..]),
            Some(&[Ovc::from_raw(code)]),
        );
        // The decimal digits appear verbatim inside a JSON string.
        assert!(frame.contains(&format!("\"{code}\"")), "{frame}");
        let doc = Json::parse(&frame).unwrap();
        let codes = doc.get("codes").unwrap().as_arr().unwrap();
        let back: u64 = codes[0].as_str().unwrap().parse().unwrap();
        assert_eq!(back, code);
    }

    /// The exact bytes of every frame kind for a fixed 3-row batch, as
    /// the `format!` / `to_string` writers these replaced produced them:
    /// values at the digit-count edges (0, 9, 10, 99, 100), past 2^53
    /// and at `u64::MAX`, codes above 2^62, an escaped request id and
    /// analyze text.  A change of one byte here is a change of protocol.
    #[test]
    fn frame_bytes_are_pinned() {
        let rows: [[u64; 3]; 3] = [[0, 9, 10], [99, 100, (1 << 53) + 1], [u64::MAX, 1, 1 << 62]];
        let codes = [
            Ovc::from_raw((1 << 62) | 123),
            Ovc::from_raw((1 << 62) | (1 << 61) | 99),
            Ovc::from_raw(u64::MAX >> 1),
        ];
        let stats = StatsSnapshot {
            col_value_cmps: 12,
            ovc_cmps: 3,
            row_cmps: 0,
            rows_spilled: 100,
            bytes_spilled: 7,
            rows_read_back: 99,
            bytes_read_back: 8,
        };
        let rows_of = || rows.iter().map(|r| &r[..]);
        // One buffer for every frame, as a session reuses it.
        let mut buf = String::new();
        let mut check = |write: &dyn Fn(&mut String), want: &str| {
            buf.clear();
            write(&mut buf);
            assert_eq!(buf, want);
        };
        check(
            &|f| header_frame(f, "req-\"7\"", "rows", 3, 2),
            "{\"frame\":\"header\",\"request_id\":\"req-\\\"7\\\"\",\"mode\":\"rows\",\"width\":3,\"key_len\":2}\n",
        );
        check(&|f| batch_frame(f, 4, rows_of(), Some(&codes)), "{\"frame\":\"batch\",\"seq\":4,\"rows\":[[\"0\",\"9\",\"10\"],[\"99\",\"100\",\"9007199254740993\"],[\"18446744073709551615\",\"1\",\"4611686018427387904\"]],\"codes\":[\"4611686018427388027\",\"6917529027641081955\",\"9223372036854775807\"]}\n");
        check(&|f| batch_frame(f, 0, rows_of(), None), "{\"frame\":\"batch\",\"seq\":0,\"rows\":[[\"0\",\"9\",\"10\"],[\"99\",\"100\",\"9007199254740993\"],[\"18446744073709551615\",\"1\",\"4611686018427387904\"]]}\n");
        // Built in pieces, rows arriving one at a time, a frame is the
        // same bytes.
        check(
            &|f| {
                batch_frame_open(f, 4);
                for r in rows_of() {
                    batch_frame_rows(f, std::iter::once(r));
                }
                batch_frame_close(f, Some(&codes));
            },
            "{\"frame\":\"batch\",\"seq\":4,\"rows\":[[\"0\",\"9\",\"10\"],[\"99\",\"100\",\"9007199254740993\"],[\"18446744073709551615\",\"1\",\"4611686018427387904\"]],\"codes\":[\"4611686018427388027\",\"6917529027641081955\",\"9223372036854775807\"]}\n",
        );
        check(&|f| trailer_frame(f, 3, 1, &stats, None), "{\"frame\":\"trailer\",\"status\":\"ok\",\"rows\":3,\"batches\":1,\"stats\":{\"col_value_cmps\":12,\"ovc_cmps\":3,\"row_cmps\":0,\"rows_spilled\":100,\"rows_read_back\":99}}\n");
        check(
            &|f| {
                let analyze = Some("Scan t\n  rows=3 \"q\"");
                trailer_frame(f, 0, 0, &StatsSnapshot::default(), analyze)
            },
            "{\"frame\":\"trailer\",\"status\":\"ok\",\"rows\":0,\"batches\":0,\"stats\":{\"col_value_cmps\":0,\"ovc_cmps\":0,\"row_cmps\":0,\"rows_spilled\":0,\"rows_read_back\":0},\"analyze\":\"Scan t\\n  rows=3 \\\"q\\\"\"}\n",
        );
        check(
            &|f| error_frame(f, "plan root is partitioned"),
            "{\"frame\":\"error\",\"status\":\"error\",\"message\":\"plan root is partitioned\"}\n",
        );
        check(
            &|f| typed_error_frame(f, "timeout", "deadline exceeded after 5ms"),
            "{\"frame\":\"error\",\"status\":\"error\",\"reason\":\"timeout\",\"message\":\"deadline exceeded after 5ms\"}\n",
        );
    }

    #[test]
    fn frames_are_parseable_json_lines() {
        let frame = |write: &dyn Fn(&mut String)| {
            let mut f = String::new();
            write(&mut f);
            f
        };
        let h = frame(&|f| header_frame(f, "req-1", "rows", 2, 2));
        assert_eq!(
            Json::parse(&h).unwrap().get("frame").unwrap().as_str(),
            Some("header")
        );
        let t =
            frame(&|f| trailer_frame(f, 10, 1, &StatsSnapshot::default(), Some("line1\nline2")));
        let doc = Json::parse(&t).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("analyze").unwrap().as_str(), Some("line1\nline2"));
        let e = frame(&|f| error_frame(f, "bad \"quote\""));
        assert_eq!(
            Json::parse(&e).unwrap().get("message").unwrap().as_str(),
            Some("bad \"quote\"")
        );
        let e = frame(&|f| typed_error_frame(f, "timeout", "deadline exceeded after 5ms"));
        let doc = Json::parse(&e).unwrap();
        assert_eq!(doc.get("frame").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("timeout"));
        assert_eq!(
            doc.get("message").unwrap().as_str(),
            Some("deadline exceeded after 5ms")
        );
    }
}
