//! A minimal HTTP/1.1 layer over `std::net` — request parsing, response
//! writing, and chunked transfer encoding for streaming bodies.
//!
//! This workspace builds without crates.io, so the server speaks just
//! enough HTTP/1.1 for its wire contract (DESIGN.md §13): request line +
//! headers + `Content-Length` bodies in, fixed or chunked responses out,
//! keep-alive by default.  Everything unsupported is rejected loudly with
//! a 4xx instead of guessed at.

use std::io::{BufRead, IoSlice, Read, Write};

/// Largest accepted request head — request line plus header block — in
/// bytes (64 KiB — far above any legitimate client, far below a
/// memory-exhaustion vector).
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Largest accepted request body, in bytes (16 MiB — bounds table
/// registration payloads).
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request path, without query string splitting (paths are exact
    /// routes in this protocol).
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the (lowercased) header `name`.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Does the client ask to close the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed the connection before a full request arrived
    /// (clean close between requests parses as `Ok(None)` instead).
    UnexpectedEof,
    /// Malformed request line or header.
    Malformed(String),
    /// Header block or declared body exceeds the fixed limits.
    TooLarge(String),
    /// Socket-level failure.
    Io(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnexpectedEof => write!(f, "connection closed mid-request"),
            ParseError::Malformed(m) => write!(f, "malformed request: {m}"),
            ParseError::TooLarge(m) => write!(f, "request too large: {m}"),
            ParseError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

/// Read one request off the connection.  `Ok(None)` means the peer
/// closed cleanly between requests (the normal end of a keep-alive
/// session); errors mid-request are surfaced as [`ParseError`].
///
/// The head — request line plus headers — is read through a
/// [`Read::take`] of `MAX_HEADER_BYTES + 1` bytes, so a line that never
/// ends is cut there and answered `TooLarge` instead of being buffered
/// whole.  Framing is `Content-Length` only: a `Transfer-Encoding`
/// header or two differing `Content-Length` values are `Malformed`
/// (RFC 9112 §6.3), never guessed at.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ParseError> {
    let (method, path, headers) = {
        let mut head = reader.by_ref().take(MAX_HEADER_BYTES as u64 + 1);
        let mut head_bytes = 0usize;
        let mut next_line = |line: &mut String| -> Result<usize, ParseError> {
            let n = head
                .read_line(line)
                .map_err(|e| ParseError::Io(e.to_string()))?;
            head_bytes += n;
            if head_bytes > MAX_HEADER_BYTES {
                return Err(ParseError::TooLarge("request head".into()));
            }
            Ok(n)
        };

        let mut line = String::new();
        if next_line(&mut line)? == 0 {
            return Ok(None);
        }
        let line = line.trim_end();
        let mut parts = line.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
            _ => return Err(ParseError::Malformed(format!("request line {line:?}"))),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(ParseError::Malformed(format!("unsupported {version}")));
        }

        let mut headers = Vec::new();
        loop {
            let mut h = String::new();
            if next_line(&mut h)? == 0 {
                return Err(ParseError::UnexpectedEof);
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            let Some((name, value)) = h.split_once(':') else {
                return Err(ParseError::Malformed(format!("header {h:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        (method, path, headers)
    };

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ParseError::Malformed(
            "transfer-encoding is not supported; send content-length".into(),
        ));
    }
    let mut content_length: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed(format!("content-length {v:?}")))?;
        if content_length.is_some_and(|seen| seen != n) {
            return Err(ParseError::Malformed("conflicting content-length".into()));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge(format!(
            "body of {content_length} bytes"
        )));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ParseError::UnexpectedEof
            } else {
                ParseError::Io(e.to_string())
            }
        })?;
    }
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Write a complete (non-streaming) response with a `Content-Length`
/// body.  `extra_headers` ride between the standard headers and the
/// blank line.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        body.len()
    )?;
    for (k, v) in extra_headers {
        write!(w, "{k}: {v}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// A chunked-transfer response body: the streaming half of the wire
/// contract.  Construct with [`ChunkedWriter::start`] (which emits the
/// status line and headers), push frames with [`ChunkedWriter::chunk`],
/// and terminate with [`ChunkedWriter::finish`] — the zero-length chunk
/// is the client's only end-of-stream signal, so a response missing it
/// is detectably truncated (graceful shutdown relies on this: a drained
/// query always reaches `finish`).
pub struct ChunkedWriter<W: Write> {
    w: W,
    bytes: u64,
}

impl<W: Write> ChunkedWriter<W> {
    /// Emit status line and headers and switch the body to chunked mode.
    pub fn start(
        mut w: W,
        status: u16,
        reason: &str,
        content_type: &str,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\n"
        )?;
        for (k, v) in extra_headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        Ok(ChunkedWriter { w, bytes: 0 })
    }

    /// Write one chunk (one protocol frame) and flush it, so clients see
    /// batches as they are produced, not when the query finishes.
    ///
    /// The size line, the frame and its CRLF go to `w` as one vectored
    /// write, so a `BufWriter` either copies all three (a chunk that
    /// fits its buffer) or passes them to the socket in one `writev` —
    /// never the size line, the frame and the CRLF as three writes.
    /// Nothing is allocated.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // zero-length chunk would terminate the body
        }
        // At most 16 hex digits and the CRLF.
        let mut line = [0u8; 18];
        let mut cursor = std::io::Cursor::new(&mut line[..]);
        write!(cursor, "{:x}\r\n", data.len())?;
        let head = cursor.position() as usize;
        let mut parts = [
            IoSlice::new(&line[..head]),
            IoSlice::new(data),
            IoSlice::new(b"\r\n"),
        ];
        let mut left = &mut parts[..];
        while !left.is_empty() {
            match self.w.write_vectored(left) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.bytes += data.len() as u64;
        self.w.flush()
    }

    /// Terminate the chunked body.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()?;
        Ok(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nX-Request-Id: abc\r\n\r\nbody";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"body");
        assert_eq!(req.header("x-request-id"), Some("abc"));
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_none_mid_request_is_error() {
        let mut r = BufReader::new(&b""[..]);
        assert!(read_request(&mut r).unwrap().is_none());
        let mut r = BufReader::new(&b"GET /health HTTP/1.1\r\n"[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ParseError::UnexpectedEof)
        ));
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        let mut r = BufReader::new(&b"NONSENSE\r\n\r\n"[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ParseError::Malformed(_))
        ));
        let raw = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut r = BufReader::new(raw.as_bytes());
        assert!(matches!(read_request(&mut r), Err(ParseError::TooLarge(_))));
    }

    /// A `BufRead` that counts the bytes its caller consumes.
    struct Counting<R> {
        inner: R,
        consumed: usize,
    }

    impl<R: BufRead> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    impl<R: BufRead> BufRead for Counting<R> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }
        fn consume(&mut self, n: usize) {
            self.consumed += n;
            self.inner.consume(n);
        }
    }

    /// Parse `raw`, returning the outcome and the bytes consumed.
    fn parse_counting(raw: &[u8]) -> (Result<Option<Request>, ParseError>, usize) {
        let mut r = Counting {
            inner: BufReader::new(raw),
            consumed: 0,
        };
        (read_request(&mut r), r.consumed)
    }

    #[test]
    fn endless_head_lines_are_cut_at_the_cap() {
        const MIB: usize = 1 << 20;
        let mut request_line = b"GET /".to_vec();
        request_line.resize(MIB, b'a');
        let mut header_line = b"GET /health HTTP/1.1\r\nx-pad: ".to_vec();
        header_line.resize(MIB, b'a');
        for raw in [request_line, header_line] {
            let (got, consumed) = parse_counting(&raw);
            assert!(matches!(got, Err(ParseError::TooLarge(_))), "{got:?}");
            assert!(consumed <= MAX_HEADER_BYTES + 1, "consumed {consumed}");
        }
    }

    #[test]
    fn head_at_the_cap_parses_one_past_it_does_not() {
        let head = |len: usize| {
            let mut raw = b"GET /health HTTP/1.1\r\nx-pad: ".to_vec();
            raw.resize(len - 4, b'a');
            raw.extend_from_slice(b"\r\n\r\n");
            raw
        };
        let (got, consumed) = parse_counting(&head(MAX_HEADER_BYTES));
        let req = got.unwrap().unwrap();
        assert_eq!(req.path, "/health");
        assert_eq!(consumed, MAX_HEADER_BYTES);
        let (got, consumed) = parse_counting(&head(MAX_HEADER_BYTES + 1));
        assert!(matches!(got, Err(ParseError::TooLarge(_))), "{got:?}");
        assert!(consumed <= MAX_HEADER_BYTES + 1, "consumed {consumed}");
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 2\r\n\r\nbody";
        let mut r = BufReader::new(&raw[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ParseError::Malformed(_))
        ));
        // Repeating the same value is legal.
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 4\r\nContent-Length: 4\r\n\r\nbody";
        let mut r = BufReader::new(&raw[..]);
        assert_eq!(read_request(&mut r).unwrap().unwrap().body, b"body");
    }

    #[test]
    fn transfer_encoding_is_malformed() {
        // Ignoring the header would parse the chunked body as the next
        // request; refuse it instead.
        let raw = b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert!(matches!(
            read_request(&mut r),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn chunked_round_trip_is_valid_http() {
        let mut buf = Vec::new();
        let mut cw =
            ChunkedWriter::start(&mut buf, 200, "OK", "application/x-ndjson", &[]).unwrap();
        cw.chunk(b"{\"a\":1}\n").unwrap();
        cw.chunk(b"{\"b\":2}\n").unwrap();
        let total = cw.finish().unwrap();
        assert_eq!(total, 16);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.ends_with("0\r\n\r\n"));
        // Chunk sizes are hex.
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"), "{text}");
    }

    /// A writer that records each call's byte count, vectored calls
    /// as one.
    #[derive(Default)]
    struct Calls(Vec<usize>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let n = bufs.iter().map(|b| b.len()).sum();
            self.0.push(n);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_chunk_is_one_write() {
        let mut calls = Calls::default();
        let mut cw = ChunkedWriter::start(&mut calls, 200, "OK", "text/plain", &[]).unwrap();
        let head_writes = cw.w.0.len();
        let frame = vec![b'x'; 3 * 8192];
        cw.chunk(&frame).unwrap();
        cw.chunk(b"{}\n").unwrap();
        cw.finish().unwrap();
        // "6000\r\n" + frame + CRLF, then "3\r\n{}\n\r\n", then the
        // terminal chunk.
        assert_eq!(calls.0[head_writes..], [6 + frame.len() + 2, 3 + 3 + 2, 5]);
    }

    #[test]
    fn connection_close_header() {
        let raw = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert!(read_request(&mut r).unwrap().unwrap().wants_close());
    }
}
