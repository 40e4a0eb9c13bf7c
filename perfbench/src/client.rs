//! A minimal HTTP/1.1 client for `qdd serve`: one request per connection,
//! as the daemon closes every connection after answering.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// Bytes read off the wire, headers included.
    pub wire_bytes: usize,
}

pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse(&raw)
}

fn malformed(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

fn parse(raw: &[u8]) -> io::Result<Response> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| malformed("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| malformed("non-UTF-8 headers"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let chunked = head.lines().any(|l| {
        l.to_ascii_lowercase()
            .starts_with("transfer-encoding: chunked")
    });
    let payload = &raw[head_end + 4..];
    let body = if chunked {
        dechunk(payload)?
    } else {
        payload.to_vec()
    };
    Ok(Response {
        status,
        body,
        wire_bytes: raw.len(),
    })
}

fn dechunk(mut data: &[u8]) -> io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(data.len());
    loop {
        let line_end = data
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| malformed("truncated chunk size"))?;
        let size_text =
            std::str::from_utf8(&data[..line_end]).map_err(|_| malformed("bad chunk size"))?;
        let size =
            usize::from_str_radix(size_text.trim(), 16).map_err(|_| malformed("bad chunk size"))?;
        data = &data[line_end + 2..];
        if size == 0 {
            return Ok(body);
        }
        if data.len() < size + 2 {
            return Err(malformed("truncated chunk"));
        }
        body.extend_from_slice(&data[..size]);
        data = &data[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_fixed_and_chunked_bodies() {
        let fixed = parse(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!((fixed.status, fixed.body.as_slice()), (200, &b"{}"[..]));
        let chunked =
            parse(b"HTTP/1.1 201 Created\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n2\r\nc\n\r\n0\r\n\r\n").unwrap();
        assert_eq!(
            (chunked.status, chunked.body.as_slice()),
            (201, &b"ab\nc\n"[..])
        );
    }
}
