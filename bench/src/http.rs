//! The load generator's HTTP/1.1 client: keep-alive, `TCP_NODELAY`,
//! incremental de-chunking so the first `batch` frame can be timed, and
//! a running hash over the batch-frame bytes so every timed response is
//! checked against the gate's answer without parsing it.
//!
//! Written against the wire protocol only (status line, headers,
//! chunked NDJSON frames tagged by `"frame"`), not against the server's
//! Rust types.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use crate::gen::Fnv;

pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    /// Acknowledge received segments at once instead of delaying.
    quick_ack: bool,
    buf: Vec<u8>,
    /// `buf[pos..len]` is read but not yet consumed.
    pos: usize,
    len: usize,
}

/// One response, as much of it as the benchmark looks at.
#[derive(Debug, Default)]
pub struct Reply {
    pub status: u16,
    /// Body bytes after de-chunking.
    pub body_bytes: u64,
    pub batches: u64,
    /// FNV over the bytes of every `batch` frame, in order.
    pub batch_hash: u64,
    /// The trailer frame's text, when one arrived.
    pub trailer: Option<String>,
    pub saw_error_frame: bool,
    /// When the first `batch` frame had been read completely.
    pub first_batch_at: Option<Instant>,
    /// The de-chunked body, kept only on request.
    pub body: Option<Vec<u8>>,
}

impl Reply {
    /// A streamed query answered completely: 200, no error frame, and a
    /// trailer (its absence means the stream was cut short).
    pub fn complete(&self) -> bool {
        self.status == 200 && !self.saw_error_frame && self.trailer.is_some()
    }

    /// The `rows` count the trailer states.
    pub fn trailer_rows(&self) -> Option<u64> {
        let doc = crate::json::parse(self.trailer.as_deref()?).ok()?;
        doc.get("rows")?.as_f64().map(|n| n as u64)
    }
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// The value of the `"frame"` member near the start of an NDJSON line.
pub fn frame_kind(line: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"frame\"";
    let head = &line[..line.len().min(96)];
    let at = head.windows(KEY.len()).position(|w| w == KEY)?;
    let mut rest = &line[at + KEY.len()..];
    while let [b' ' | b':' | b'\t', tail @ ..] = rest {
        rest = tail;
    }
    let rest = rest.strip_prefix(b"\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    Some(&rest[..end])
}

/// FNV over a byte string, eight bytes per step (the tail zero-padded,
/// the length mixed in so padding cannot collide).
pub fn hash_bytes(h: &mut Fnv, bytes: &[u8]) {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    h.word(u64::from_le_bytes(tail));
    h.word(bytes.len() as u64);
}

/// Splits a de-chunked NDJSON body into frames as the bytes arrive.
struct FrameScanner {
    line: Vec<u8>,
    hash: Fnv,
}

impl FrameScanner {
    fn feed(&mut self, mut bytes: &[u8], reply: &mut Reply) {
        while let Some(nl) = bytes.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&bytes[..=nl]);
            bytes = &bytes[nl + 1..];
            match frame_kind(&self.line) {
                Some(b"batch") => {
                    hash_bytes(&mut self.hash, &self.line);
                    reply.batches += 1;
                    if reply.first_batch_at.is_none() {
                        reply.first_batch_at = Some(Instant::now());
                    }
                }
                Some(b"trailer") => {
                    reply.trailer = Some(String::from_utf8_lossy(&self.line).into_owned());
                }
                Some(b"error") => reply.saw_error_frame = true,
                _ => {}
            }
            self.line.clear();
        }
        self.line.extend_from_slice(bytes);
    }
}

/// Scan a whole de-chunked body: batch-frame count and hash (what the
/// client does to every response, here callable on a recording).
pub fn scan_body(body: &[u8]) -> (u64, u64) {
    let mut reply = Reply::default();
    let mut scanner = FrameScanner {
        line: Vec::new(),
        hash: Fnv::new(),
    };
    scanner.feed(body, &mut reply);
    (reply.batches, scanner.hash.0)
}

impl Conn {
    /// `quick_ack` sets `TCP_QUICKACK` before every read (the kernel
    /// clears it as it pleases), so the server's Nagle-held writes are
    /// released by an immediate ACK instead of waiting out the ~40 ms
    /// delayed-ACK timer.
    pub fn connect(addr: SocketAddr, quick_ack: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            stream,
            quick_ack,
            buf: vec![0; 64 * 1024],
            pos: 0,
            len: 0,
        })
    }

    /// Replace a connection a transport error left in an unknown state.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Conn::connect(self.addr, self.quick_ack)?;
        Ok(())
    }

    fn fill(&mut self) -> std::io::Result<()> {
        if self.pos == self.len {
            self.pos = 0;
            self.len = 0;
        }
        if self.len == self.buf.len() {
            // A header or chunk-size line longer than the buffer.
            return Err(bad("line exceeds the read buffer"));
        }
        #[cfg(target_os = "linux")]
        if self.quick_ack {
            std::os::linux::net::TcpStreamExt::set_quickack(&self.stream, true)?;
        }
        let n = self.stream.read(&mut self.buf[self.len..])?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.len += n;
        Ok(())
    }

    /// One CRLF-terminated line, without the terminator.
    fn line(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(nl) = self.buf[self.pos..self.len]
                .iter()
                .position(|&b| b == b'\n')
            {
                let raw = &self.buf[self.pos..self.pos + nl];
                let text = String::from_utf8_lossy(raw).trim_end().to_string();
                self.pos += nl + 1;
                return Ok(text);
            }
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.len, 0);
                self.len -= self.pos;
                self.pos = 0;
            }
            self.fill()?;
        }
    }

    /// Consume exactly `n` body bytes, handing them to `sink` in pieces.
    fn take(&mut self, mut n: usize, sink: &mut dyn FnMut(&[u8])) -> std::io::Result<()> {
        while n > 0 {
            if self.pos == self.len {
                self.fill()?;
            }
            let k = n.min(self.len - self.pos);
            sink(&self.buf[self.pos..self.pos + k]);
            self.pos += k;
            n -= k;
        }
        Ok(())
    }

    /// Send one request and read the whole response.  `keep_body` also
    /// returns the de-chunked body.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        keep_body: bool,
    ) -> std::io::Result<Reply> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(msg.as_bytes())?;
        self.read_reply(keep_body)
    }

    fn read_reply(&mut self, keep_body: bool) -> std::io::Result<Reply> {
        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut chunked = false;
        let mut content_length = 0usize;
        loop {
            let header = self.line()?;
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
                if k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked") {
                    chunked = true;
                } else if k == "content-length" {
                    content_length = v.parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut reply = Reply {
            status,
            ..Reply::default()
        };
        let mut scanner = FrameScanner {
            line: Vec::new(),
            hash: Fnv::new(),
        };
        let mut body_bytes = 0u64;
        let mut kept = keep_body.then(Vec::new);
        let mut sink = |bytes: &[u8], reply: &mut Reply| {
            body_bytes += bytes.len() as u64;
            scanner.feed(bytes, reply);
            if let Some(k) = kept.as_mut() {
                k.extend_from_slice(bytes);
            }
        };
        if chunked {
            loop {
                let size_line = self.line()?;
                let size =
                    usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                        .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
                self.take(size, &mut |b| sink(b, &mut reply))?;
                self.take(2, &mut |_| {})?; // the chunk's trailing CRLF
                if size == 0 {
                    break;
                }
            }
        } else {
            self.take(content_length, &mut |b| sink(b, &mut reply))?;
        }
        reply.body_bytes = body_bytes;
        reply.batch_hash = scanner.hash.0;
        reply.body = kept;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_kind_reads_the_tag() {
        assert_eq!(
            frame_kind(b"{\"frame\":\"batch\",\"seq\":0,\"rows\":[]}\n"),
            Some(&b"batch"[..])
        );
        assert_eq!(
            frame_kind(b"{ \"frame\" : \"trailer\", \"rows\": 3}\n"),
            Some(&b"trailer"[..])
        );
        assert_eq!(frame_kind(b"{\"status\":\"ok\"}\n"), None);
    }

    #[test]
    fn scanner_handles_frames_split_across_reads() {
        let body = b"{\"frame\":\"header\"}\n{\"frame\":\"batch\",\"rows\":[[\"1\"]]}\n\
                     {\"frame\":\"batch\",\"rows\":[[\"2\"]]}\n{\"frame\":\"trailer\",\"rows\":2}\n";
        let whole = {
            let mut r = Reply::default();
            let mut s = FrameScanner {
                line: Vec::new(),
                hash: Fnv::new(),
            };
            s.feed(body, &mut r);
            (r.batches, s.hash.0, r.trailer.clone())
        };
        let pieces = {
            let mut r = Reply::default();
            let mut s = FrameScanner {
                line: Vec::new(),
                hash: Fnv::new(),
            };
            for piece in body.chunks(7) {
                s.feed(piece, &mut r);
            }
            assert!(r.first_batch_at.is_some());
            (r.batches, s.hash.0, r.trailer.clone())
        };
        assert_eq!(whole, pieces);
        assert_eq!(whole.0, 2);
        let mut r = Reply {
            trailer: whole.2,
            status: 200,
            ..Reply::default()
        };
        assert_eq!(r.trailer_rows(), Some(2));
        assert!(r.complete());
        r.saw_error_frame = true;
        assert!(!r.complete());
    }

    #[test]
    fn hash_depends_on_length_and_content() {
        let h = |b: &[u8]| {
            let mut f = Fnv::new();
            hash_bytes(&mut f, b);
            f.0
        };
        assert_ne!(h(b"abc"), h(b"abc\0"));
        assert_ne!(h(b"12345678"), h(b"12345679"));
    }
}
