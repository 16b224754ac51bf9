//! The wire protocol: JSON on the request side, newline-delimited JSON
//! frames on the response side.
//!
//! Requests carry a [`LogicalPlan`] as nested single-key objects (the
//! builder API, spelled in JSON — see [`parse_plan`]); responses stream
//! frames of three kinds: one `header`, zero or more `batch` frames of
//! ~[`crate::ServerConfig::batch_rows`] rows each, and one `trailer`.
//!
//! ## Why codes travel as strings
//!
//! Offset-value codes are `u64` values with bit 62 set (the *valid* tag),
//! so every code exceeds 2^62 — far past the 2^53 range where an `f64`
//! (and therefore a JSON number in every mainstream parser) is exact.
//! Frames emit codes and row values through [`u64s_json`], which prints
//! them as decimal **strings**; clients parse them back with integer
//! parsers and lose nothing.  Inbound numeric literals (predicates, table
//! rows) pass through `f64` and are exact only up to 2^53, which the
//! protocol documents as its input domain.

use ovc_core::{Direction, Ovc, Row, SortSpec, StatsSnapshot, Value};
use ovc_json::{write_str, Json};
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
/// registration, per Section 4.11).
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
    let width = rows.first().map_or(0, Row::width);
    if rows.iter().any(|r| r.width() != width) {
        return err("table rows: every row must have the same number of values");
    }
    let spec = if j.get("sorted_key").is_some() || j.get("dirs").is_some() {
        Some(parse_sort_spec(&rename_sorted_key(j))?)
    } else {
        None
    };
    match spec {
        None => Ok(Table::unsorted(rows)),
        Some(spec) if !rows.is_empty() && spec.len() > width => {
            err("table rows: the sort key is longer than the rows")
        }
        Some(spec) => {
            if !ovc_core::derive::is_sorted_spec(&rows, &spec) {
                return err(format!("table rows are not ordered under {spec}"));
            }
            Ok(Table::sorted_by(rows, spec))
        }
    }
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
pub fn u64s_json(out: &mut String, values: impl Iterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&v.to_string());
        out.push('"');
    }
    out.push(']');
}

/// The `header` frame opening every streaming response.
pub fn header_frame(request_id: &str, mode: &str, width: usize, key_len: usize) -> String {
    let mut f = String::from("{\"frame\":\"header\",\"request_id\":");
    write_str(&mut f, request_id);
    f.push_str(&format!(
        ",\"mode\":\"{mode}\",\"width\":{width},\"key_len\":{key_len}}}\n"
    ));
    f
}

/// One `batch` frame: parallel `rows` / `codes` arrays (codes omitted
/// for unordered outputs), `seq` numbering batches from 0.  Rows and
/// codes are encoded straight from the slices they already live in — a
/// range of the result's flat buffer — so a frame costs its own string
/// and nothing per row.
pub fn batch_frame<'a>(
    seq: u64,
    rows: impl Iterator<Item = &'a [u64]>,
    codes: Option<&[Ovc]>,
) -> String {
    let mut f = format!("{{\"frame\":\"batch\",\"seq\":{seq},\"rows\":[");
    for (i, r) in rows.enumerate() {
        if i > 0 {
            f.push(',');
        }
        u64s_json(&mut f, r.iter().copied());
    }
    f.push(']');
    if let Some(codes) = codes {
        f.push_str(",\"codes\":");
        u64s_json(&mut f, codes.iter().map(|c| c.raw()));
    }
    f.push_str("}\n");
    f
}

/// The `trailer` frame closing every streaming response: total rows and
/// batches, the query's own [`StatsSnapshot`] deltas, and (in analyze
/// mode) the rendered profile.
pub fn trailer_frame(
    rows: u64,
    batches: u64,
    stats: &StatsSnapshot,
    analyze: Option<&str>,
) -> String {
    let mut f = format!(
        "{{\"frame\":\"trailer\",\"status\":\"ok\",\"rows\":{rows},\"batches\":{batches},\
         \"stats\":{{\"col_value_cmps\":{},\"ovc_cmps\":{},\"row_cmps\":{},\
         \"rows_spilled\":{},\"rows_read_back\":{}}}",
        stats.col_value_cmps,
        stats.ovc_cmps,
        stats.row_cmps,
        stats.rows_spilled,
        stats.rows_read_back
    );
    if let Some(text) = analyze {
        f.push_str(",\"analyze\":");
        write_str(&mut f, text);
    }
    f.push_str("}\n");
    f
}

/// An `error` frame, for failures after the header has already gone out
/// (mid-stream the status line is spent; the frame is the only channel
/// left).
pub fn error_frame(message: &str) -> String {
    let mut f = String::from("{\"frame\":\"error\",\"status\":\"error\",\"message\":");
    write_str(&mut f, message);
    f.push_str("}\n");
    f
}

/// An `error` frame with a machine-readable failure `reason` —
/// [`ovc_core::ctx::ExecError::reason`]: `"cancelled"`, `"timeout"`,
/// `"spill_io"`, `"spill_corruption"`, `"spill_budget"`, or
/// `"worker_panic"` — so clients can branch on the fault class without
/// parsing the human-readable message.
pub fn typed_error_frame(reason: &str, message: &str) -> String {
    let mut f = String::from("{\"frame\":\"error\",\"status\":\"error\",\"reason\":");
    write_str(&mut f, reason);
    f.push_str(",\"message\":");
    write_str(&mut f, message);
    f.push_str("}\n");
    f
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

    #[test]
    fn codes_above_2_53_survive_the_wire() {
        // A real valid-tagged code: bit 62 set, low bits distinguishable.
        let code: u64 = (1 << 62) | 12345;
        let rows = [[1u64, 2]];
        let frame = batch_frame(0, rows.iter().map(|r| &r[..]), Some(&[Ovc::from_raw(code)]));
        // The decimal digits appear verbatim inside a JSON string.
        assert!(frame.contains(&format!("\"{code}\"")), "{frame}");
        let doc = Json::parse(&frame).unwrap();
        let codes = doc.get("codes").unwrap().as_arr().unwrap();
        let back: u64 = codes[0].as_str().unwrap().parse().unwrap();
        assert_eq!(back, code);
    }

    #[test]
    fn frames_are_parseable_json_lines() {
        let h = header_frame("req-1", "rows", 2, 2);
        assert_eq!(
            Json::parse(&h).unwrap().get("frame").unwrap().as_str(),
            Some("header")
        );
        let t = trailer_frame(10, 1, &StatsSnapshot::default(), Some("line1\nline2"));
        let doc = Json::parse(&t).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("analyze").unwrap().as_str(), Some("line1\nline2"));
        let e = error_frame("bad \"quote\"");
        assert_eq!(
            Json::parse(&e).unwrap().get("message").unwrap().as_str(),
            Some("bad \"quote\"")
        );
        let e = typed_error_frame("timeout", "deadline exceeded after 5ms");
        let doc = Json::parse(&e).unwrap();
        assert_eq!(doc.get("frame").unwrap().as_str(), Some("error"));
        assert_eq!(doc.get("reason").unwrap().as_str(), Some("timeout"));
        assert_eq!(
            doc.get("message").unwrap().as_str(),
            Some("deadline exceeded after 5ms")
        );
    }
}
