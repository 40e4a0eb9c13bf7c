//! A minimal, dependency-free HTTP/1.1 server transport.
//!
//! The workspace carries no web framework; this module implements exactly
//! the subset `qdd serve` needs: request-line + header parsing,
//! `Content-Length` bodies with a hard cap, and fixed-length responses,
//! each sent with one write. Every connection serves one request
//! (`Connection: close`), which keeps the daemon's concurrency model
//! one-thread-per-request with no keep-alive state machine.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A parsed request: method, percent-unencoded path, and body bytes.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, `DELETE`).
    pub method: String,
    /// Request target path (query strings are not used by the API).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ParseError {
    /// Socket-level failure or premature close.
    Io(std::io::Error),
    /// The request line or headers were not HTTP.
    Malformed(&'static str),
    /// The declared body length exceeds the server's cap.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed(why) => write!(f, "malformed request: {why}"),
            ParseError::BodyTooLarge { declared, cap } => {
                write!(f, "declared body of {declared} bytes exceeds the {cap}-byte cap")
            }
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Longest request line or header line accepted, bytes (including CRLF).
/// Without a per-line cap, a client streaming bytes with no newline grows
/// the line buffer without bound.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most header bytes accepted per request across all header lines. Bounds
/// a client sending endless (individually small) headers.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Reads one `\n`-terminated line of at most `cap` bytes. A line still
/// unterminated at the cap is malformed — the connection is buying buffer
/// space the server will not grant.
fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> Result<String, ParseError> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if buf.len() > cap {
        return Err(ParseError::Malformed("line exceeds the per-line byte cap"));
    }
    String::from_utf8(buf).map_err(|_| ParseError::Malformed("line is not UTF-8"))
}

/// Reads one request from the stream. `body_cap` bounds the bytes this
/// connection may make the server buffer; request-line and header reads
/// are bounded by `MAX_LINE_BYTES` / `MAX_HEADER_BYTES` so that *no*
/// phase of request parsing buffers unbounded client input.
pub fn read_request(stream: &mut TcpStream, body_cap: usize) -> Result<Request, ParseError> {
    read_request_from(&mut BufReader::new(stream), body_cap)
}

/// [`read_request`] over any buffered reader (unit-testable without a
/// socket).
fn read_request_from<R: BufRead>(reader: &mut R, body_cap: usize) -> Result<Request, ParseError> {
    let line = read_line_capped(reader, MAX_LINE_BYTES)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(ParseError::Malformed("request line lacks a target"))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("not an HTTP/1.x request"));
    }
    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let header = read_line_capped(reader, MAX_LINE_BYTES)?;
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ParseError::Malformed("headers exceed the total byte cap"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ParseError::Malformed("header lacks a colon"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Malformed("unparseable Content-Length"))?;
        }
    }
    if content_length > body_cap {
        return Err(ParseError::BodyTooLarge {
            declared: content_length,
            cap: body_cap,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Human phrase for the status codes the API uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response, head and body in one write,
/// and flushes it.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    let mut response = Vec::with_capacity(head.len() + body.len());
    response.extend_from_slice(head.as_bytes());
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// Reads and discards whatever else the client already sent. Called after
/// an early error response when the request was rejected *before* being
/// fully consumed (over-long line, over-cap body): closing a socket with
/// unread bytes in its receive queue raises a TCP RST, which can destroy
/// the in-flight error response before the client reads it. Bounded by
/// bytes and wall clock, best-effort — worst case the client sees the
/// reset it would have seen anyway.
pub fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    let start = std::time::Instant::now();
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
        if drained > (1 << 20) || start.elapsed() > std::time::Duration::from_millis(500) {
            break;
        }
    }
}

/// Whether the peer has closed the connection (EOF on read). Used while a
/// long job runs: the request was fully consumed, so any read yielding
/// `Ok(0)` means the client went away and the job should be cancelled.
/// The read is non-blocking, so the probe never delays noticing that the
/// job finished; stray pipelined bytes are ignored.
pub fn peer_disconnected(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 16];
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let gone = matches!((&mut (&*stream)).read(&mut probe), Ok(0));
    let _ = stream.set_nonblocking(false);
    gone
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request_from(&mut Cursor::new(raw), 1 << 20)
    }

    #[test]
    fn well_formed_requests_parse() {
        let req = parse(b"POST /v1/simulate HTTP/1.1\r\nHost: qdd\r\nContent-Length: 2\r\n\r\nhi")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/simulate");
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn newline_free_request_line_is_rejected_at_the_line_cap() {
        // A client streaming bytes with no newline must hit the cap, not
        // grow the server's buffer indefinitely.
        let raw = vec![b'A'; MAX_LINE_BYTES * 4];
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn oversized_single_header_is_rejected() {
        let mut raw = b"GET /healthz HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES * 2));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn endless_headers_are_rejected_at_the_total_cap() {
        let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
        // Individually small headers whose sum exceeds the total cap.
        for i in 0..(2 * MAX_HEADER_BYTES / 8) {
            raw.extend_from_slice(format!("X-{i}: y\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn declared_body_over_the_cap_is_a_typed_error() {
        let raw = b"POST /v1/shots HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(matches!(
            read_request_from(&mut Cursor::new(&raw[..]), 1024),
            Err(ParseError::BodyTooLarge { declared: 999999999, cap: 1024 })
        ));
    }
}
