//! A minimal blocking client for the wire protocol — the consumer side
//! of DESIGN.md §13, used by the integration tests, the gating benchmark
//! under `bench/`, and anyone wanting typed access instead of raw curl.
//! Responses are parsed with `ovc_json`, in time linear in their size.
//!
//! One [`Client`] wraps one keep-alive connection; requests are
//! sequential (issue concurrent queries from concurrent clients, which
//! is how the server is meant to be loaded).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use ovc_json::Json;

/// A client-side failure: transport, protocol, or a server-reported
/// error (with its HTTP status when one was received).
#[derive(Clone, Debug)]
pub struct ClientError {
    /// HTTP status code, when the failure came in a response (0 for
    /// transport/protocol failures before a status line).
    pub status: u16,
    /// Human-readable description (server `message` field when present).
    pub message: String,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.status == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "HTTP {}: {}", self.status, self.message)
        }
    }
}

fn fail<T>(status: u16, message: impl Into<String>) -> Result<T, ClientError> {
    Err(ClientError {
        status,
        message: message.into(),
    })
}

/// One parsed HTTP response: status, headers, fully-read body (chunked
/// bodies are de-chunked).
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Lowercased header pairs.
    pub headers: Vec<(String, String)>,
    /// The body, de-chunked when the server streamed it.
    pub body: String,
}

impl Response {
    /// First value of the (lowercased) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A fully-consumed streamed query: rows, codes (ordered outputs only),
/// and the trailer's accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryResult {
    /// Result rows, in stream order.
    pub rows: Vec<Vec<u64>>,
    /// Offset-value codes parallel to `rows` (empty for unordered
    /// outputs).
    pub codes: Vec<u64>,
    /// Batch frames received.
    pub batches: u64,
    /// `x-request-id` echoed by the server.
    pub request_id: String,
    /// The trailer's engine-stat counters, as `(name, value)` pairs.
    pub stats: Vec<(String, u64)>,
    /// Rendered `EXPLAIN ANALYZE` text (analyze mode only).
    pub analyze: Option<String>,
}

/// One keep-alive connection to an `ovc-server`.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError {
            status: 0,
            message: format!("connect {addr}: {e}"),
        })?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| ClientError {
            status: 0,
            message: e.to_string(),
        })?);
        Ok(Client { stream, reader })
    }

    /// Issue one request and read the whole response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Result<Response, ClientError> {
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            msg.push_str(&format!("{k}: {v}\r\n"));
        }
        msg.push_str("\r\n");
        msg.push_str(body);
        self.stream
            .write_all(msg.as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| ClientError {
                status: 0,
                message: format!("send: {e}"),
            })?;
        self.read_response()
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => fail(0, "connection closed"),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => fail(0, e.to_string()),
        }
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(ClientError {
                status: 0,
                message: format!("bad status line {status_line:?}"),
            })?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            let mut body = String::new();
            loop {
                let size_line = self.read_line()?;
                let size =
                    usize::from_str_radix(size_line.trim(), 16).map_err(|_| ClientError {
                        status: 0,
                        message: format!("bad chunk size {size_line:?}"),
                    })?;
                let mut chunk = vec![0u8; size + 2]; // data + trailing CRLF
                self.reader
                    .read_exact(&mut chunk)
                    .map_err(|e| ClientError {
                        status: 0,
                        message: e.to_string(),
                    })?;
                if size == 0 {
                    break;
                }
                body.push_str(
                    std::str::from_utf8(&chunk[..size]).map_err(|e| ClientError {
                        status: 0,
                        message: e.to_string(),
                    })?,
                );
            }
            body
        } else {
            let len: usize = headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0);
            let mut buf = vec![0u8; len];
            self.reader.read_exact(&mut buf).map_err(|e| ClientError {
                status: 0,
                message: e.to_string(),
            })?;
            String::from_utf8(buf).map_err(|e| ClientError {
                status: 0,
                message: e.to_string(),
            })?
        };
        Ok(Response {
            status,
            headers,
            body,
        })
    }

    /// `GET /health`, parsed.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        let r = self.request("GET", "/health", &[], "")?;
        if r.status != 200 {
            return fail(r.status, r.body);
        }
        Json::parse(&r.body).map_err(|e| ClientError {
            status: 0,
            message: e,
        })
    }

    /// `GET /metrics`, raw Prometheus text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let r = self.request("GET", "/metrics", &[], "")?;
        if r.status != 200 {
            return fail(r.status, r.body);
        }
        Ok(r.body)
    }

    /// Register a table: `POST /tables`.
    pub fn register_table(&mut self, body: &str) -> Result<Json, ClientError> {
        let r = self.request("POST", "/tables", &[], body)?;
        if r.status != 200 {
            return fail(r.status, r.body);
        }
        Json::parse(&r.body).map_err(|e| ClientError {
            status: 0,
            message: e,
        })
    }

    /// Run a query (`body` is the full request document, e.g.
    /// `{"plan": {...}, "mode": "rows"}`) and collect the streamed
    /// frames into a [`QueryResult`].
    pub fn query(&mut self, body: &str) -> Result<QueryResult, ClientError> {
        self.query_with_headers(body, &[])
    }

    /// As [`Client::query`], with extra request headers (e.g. a caller
    /// chosen `x-request-id`).
    pub fn query_with_headers(
        &mut self,
        body: &str,
        headers: &[(&str, &str)],
    ) -> Result<QueryResult, ClientError> {
        let r = self.request("POST", "/query", headers, body)?;
        if r.status != 200 {
            let message = Json::parse(&r.body)
                .ok()
                .and_then(|d| d.get("message").and_then(Json::as_str).map(str::to_string))
                .unwrap_or(r.body);
            return fail(r.status, message);
        }
        let mut result = QueryResult {
            request_id: r.header("x-request-id").unwrap_or("").to_string(),
            ..QueryResult::default()
        };
        let mut saw_trailer = false;
        for line in r.body.lines().filter(|l| !l.is_empty()) {
            let frame = Json::parse(line).map_err(|e| ClientError {
                status: 0,
                message: format!("bad frame {line:?}: {e}"),
            })?;
            match frame.get("frame").and_then(Json::as_str) {
                Some("header") => {}
                Some("batch") => {
                    result.batches += 1;
                    let rows = frame
                        .get("rows")
                        .and_then(Json::as_arr)
                        .ok_or(ClientError {
                            status: 0,
                            message: "batch frame without rows".into(),
                        })?;
                    for row in rows {
                        result.rows.push(parse_u64s(row)?);
                    }
                    if let Some(codes) = frame.get("codes") {
                        result.codes.extend(parse_u64s(codes)?);
                    }
                }
                Some("trailer") => {
                    saw_trailer = true;
                    if let Some(Json::Obj(members)) = frame.get("stats") {
                        for (k, v) in members {
                            if let Some(n) = v.as_num() {
                                result.stats.push((k.clone(), n as u64));
                            }
                        }
                    }
                    result.analyze = frame
                        .get("analyze")
                        .and_then(Json::as_str)
                        .map(str::to_string);
                }
                Some("error") => {
                    let msg = frame
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown");
                    // Typed frames carry a machine-readable reason
                    // ("timeout", "worker_panic", ...); keep it in the
                    // message so callers can branch on the fault class.
                    let reason = frame.get("reason").and_then(Json::as_str);
                    return fail(
                        200,
                        match reason {
                            Some(r) => format!("server error frame [{r}]: {msg}"),
                            None => format!("server error frame: {msg}"),
                        },
                    );
                }
                other => return fail(0, format!("unknown frame kind {other:?}")),
            }
        }
        if !saw_trailer {
            return fail(0, "stream ended without a trailer frame");
        }
        Ok(result)
    }

    /// `POST /query` in explain mode, returning the rendered plan.
    pub fn explain(&mut self, plan: &str) -> Result<String, ClientError> {
        let body = format!("{{\"plan\": {plan}, \"mode\": \"explain\"}}");
        let r = self.request("POST", "/query", &[], &body)?;
        if r.status != 200 {
            return fail(r.status, r.body);
        }
        let doc = Json::parse(&r.body).map_err(|e| ClientError {
            status: 0,
            message: e,
        })?;
        doc.get("explain")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(ClientError {
                status: 0,
                message: "response without explain field".into(),
            })
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let r = self.request("POST", "/shutdown", &[("connection", "close")], "")?;
        if r.status != 200 {
            return fail(r.status, r.body);
        }
        Ok(())
    }
}

/// Decode a wire array of decimal-string u64s (the exact-integer path —
/// see `wire`'s module docs).
fn parse_u64s(j: &Json) -> Result<Vec<u64>, ClientError> {
    let Some(arr) = j.as_arr() else {
        return fail(0, "expected an array of decimal strings");
    };
    arr.iter()
        .map(|v| {
            v.as_str().and_then(|s| s.parse().ok()).ok_or(ClientError {
                status: 0,
                message: format!("bad u64 on the wire: {v:?}"),
            })
        })
        .collect()
}
