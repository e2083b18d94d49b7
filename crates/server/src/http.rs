//! Hand-rolled HTTP/1.1 — exactly the protocol slice the sweep service
//! needs, over `std::net` alone, in the same spirit as `scenario.rs`'s
//! serde-free JSON layer.
//!
//! Server side: [`read_request`] parses one request (request line,
//! headers, `Content-Length` body) off a stream; [`respond`] and
//! [`respond_chunked`] write one response. Client side: [`roundtrip`]
//! writes a request and parses the response, decoding chunked transfer.
//! Every connection is one-shot (`Connection: close`): the service's
//! clients are submit/poll loops, not browsers, so keep-alive would buy
//! nothing but state to get wrong.

use std::fmt;
use std::io::{self, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use libra_core::error::LibraError;

/// Cap on request-head bytes (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on request-body bytes. Scenario files are the only legitimate
/// request payload and they are small; records streams flow the other
/// way and are not capped.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Per-connection socket timeout, both directions: a stalled peer must
/// not pin a handler thread forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed request: method, path (query and fragment stripped), body.
#[derive(Debug)]
pub struct Request {
    /// The request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request path with any `?query` / `#fragment` suffix removed.
    pub path: String,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

/// A protocol failure carrying the HTTP status the server answers with.
#[derive(Debug)]
pub struct HttpError {
    /// The response status (400, 413, …).
    pub status: u16,
    /// The human-readable failure, sent back as `{"error": …}`.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError { status, message: message.into() }
    }
}

/// The standard reason phrase for the statuses this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Reads bytes until the blank line ending the head, returning the head
/// text and whatever body bytes were read past it.
fn read_head(stream: &mut TcpStream) -> Result<(String, Vec<u8>), HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let rest = buf.split_off(pos + 4);
            buf.truncate(pos);
            let head = String::from_utf8(buf)
                .map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
            return Ok((head, rest));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(431, "request head exceeds 16 KiB"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::new(400, "connection closed mid-request")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(HttpError::new(400, format!("reading request: {e}"))),
        }
    }
}

/// Parses one request off `stream` (and answers `Expect: 100-continue`
/// so plain `curl -d @file` works against the service).
///
/// # Errors
/// [`HttpError`] carrying the status to respond with: 400 malformed,
/// 413 oversized body, 431 oversized head, 501 chunked request body,
/// 505 unknown HTTP version.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let (head, mut body) = read_head(stream)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::new(400, format!("malformed request line {request_line:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(505, format!("unsupported version {version:?}")));
    }
    let mut content_length = 0usize;
    let mut expect_continue = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::new(400, format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::new(501, "chunked request bodies are not supported"));
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body exceeds 16 MiB"));
    }
    if expect_continue && body.len() < content_length {
        let _ = stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::new(400, "connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(HttpError::new(400, format!("reading request body: {e}"))),
        }
    }
    body.truncate(content_length);
    let path = target.split(['?', '#']).next().unwrap_or_default().to_string();
    Ok(Request { method: method.to_string(), path, body })
}

/// Writes a response head: status line, `Content-Type`, the body's
/// framing header, `Connection: close`, and the blank line.
fn write_head(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    framing: fmt::Arguments<'_>,
) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n{framing}\r\n\
         Connection: close\r\n\r\n",
        reason(status),
    )
}

/// Writes a chunked-transfer head and one chunk per item. Empty items
/// are skipped: an empty chunk would terminate the stream early.
fn write_chunks<'b>(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    chunks: impl IntoIterator<Item = &'b [u8]>,
) -> io::Result<()> {
    write_head(out, status, content_type, format_args!("Transfer-Encoding: chunked"))?;
    for chunk in chunks.into_iter().filter(|c| !c.is_empty()) {
        write!(out, "{:x}\r\n", chunk.len())?;
        out.write_all(chunk)?;
        out.write_all(b"\r\n")?;
    }
    Ok(())
}

/// Writes one complete response with a `Content-Length` body, buffered
/// so a small response leaves in one write.
///
/// # Errors
/// Propagates socket write failures.
pub fn respond(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    write_head(&mut out, status, content_type, format_args!("Content-Length: {}", body.len()))?;
    out.write_all(body)?;
    out.flush()
}

/// Writes one chunked-transfer response, one HTTP chunk per item —
/// how `/records` streams a run line by line. The chunks go through one
/// buffer, so the socket sees a write per buffer-full, not three per
/// chunk.
///
/// # Errors
/// Propagates socket write failures.
pub fn respond_chunked<'b>(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    chunks: impl IntoIterator<Item = &'b [u8]>,
) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    write_chunks(&mut out, status, content_type, chunks)?;
    out.write_all(b"0\r\n\r\n")?;
    out.flush()
}

/// Writes a *truncated* chunked-transfer response: a valid head and the
/// first `keep` chunks, then stops without the `0\r\n\r\n` terminator —
/// the wire image of a server dying mid-stream. Exists solely for the
/// `server.response.drop` fault-injection site; a client must report
/// the truncation (see [`decode_chunked`]'s "truncated chunk" errors),
/// never silently accept the partial record set.
///
/// # Errors
/// Propagates socket write failures.
pub fn respond_chunked_partial<'b>(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    chunks: impl IntoIterator<Item = &'b [u8]>,
    keep: usize,
) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    write_chunks(
        &mut out,
        status,
        content_type,
        chunks.into_iter().filter(|c| !c.is_empty()).take(keep),
    )?;
    out.flush()
}

/// Whether a client-side error is a connection failure (the server is
/// not up yet or just went away) rather than a protocol or application
/// error — the class of failure `--retries`/connect-retry loops may
/// safely retry.
pub fn is_connect_error(error: &LibraError) -> bool {
    matches!(error, LibraError::BadRequest(message) if message.starts_with("cannot connect to "))
}

/// A parsed client-side response: status plus the decoded body
/// (chunked transfer reassembled).
#[derive(Debug)]
pub struct Response {
    /// The response status code.
    pub status: u16,
    /// The decoded response body.
    pub body: Vec<u8>,
}

fn bad(what: impl Into<String>) -> LibraError {
    LibraError::BadRequest(what.into())
}

/// Reassembles a chunked-transfer body.
fn decode_chunked(mut bytes: &[u8]) -> Result<Vec<u8>, LibraError> {
    let mut out = Vec::with_capacity(bytes.len());
    loop {
        let line_end = bytes
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| bad("truncated chunk header"))?;
        let size_text = std::str::from_utf8(&bytes[..line_end])
            .map_err(|_| bad("non-UTF-8 chunk header"))?
            .split(';') // ignore chunk extensions
            .next()
            .unwrap_or_default()
            .trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| bad(format!("bad chunk size {size_text:?}")))?;
        bytes = &bytes[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if bytes.len() < size + 2 {
            return Err(bad("truncated chunk body"));
        }
        out.extend_from_slice(&bytes[..size]);
        bytes = &bytes[size + 2..];
    }
}

/// Performs one request against `authority` (`host:port`) and parses
/// the response. `POST` bodies are sent with `Content-Length`; response
/// bodies are read to connection close and chunked transfer is decoded.
///
/// # Errors
/// [`LibraError::BadRequest`] on connect/IO failures or a malformed
/// response.
pub fn roundtrip(
    authority: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<Response, LibraError> {
    let mut stream = TcpStream::connect(authority)
        .map_err(|e| bad(format!("cannot connect to {authority}: {e}")))?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        body.map_or(0, <[u8]>::len),
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.unwrap_or_default()))
        .map_err(|e| bad(format!("writing request to {authority}: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| bad(format!("reading response from {authority}: {e}")))?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad(format!("no response head from {authority}")))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| bad("response head is not UTF-8"))?
        .to_string();
    let mut body_bytes = raw.split_off(head_end + 4);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;
    let mut content_length = None;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && value.eq_ignore_ascii_case("chunked")
        {
            chunked = true;
        }
    }
    let body = if chunked {
        decode_chunked(&body_bytes)?
    } else if let Some(len) = content_length {
        if body_bytes.len() < len {
            return Err(bad(format!(
                "short response body from {authority}: {} of {len} bytes",
                body_bytes.len()
            )));
        }
        body_bytes.truncate(len);
        body_bytes
    } else {
        body_bytes
    };
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call, so a test can count syscalls' worth
    /// of writes as well as check the bytes.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The bytes after a response's head.
    fn body_of(response: &[u8]) -> &[u8] {
        let end = response.windows(4).position(|w| w == b"\r\n\r\n").expect("a head");
        &response[end + 4..]
    }

    #[test]
    fn respond_writes_head_and_body_in_one_write() {
        let mut out = Writes::default();
        respond(&mut out, 404, "application/json", b"{\"error\": \"x\"}\n").unwrap();
        assert_eq!(out.0.len(), 1, "one write per small response");
        assert_eq!(
            out.0.concat(),
            b"HTTP/1.1 404 Not Found\r\n\
              Content-Type: application/json\r\n\
              Content-Length: 15\r\n\
              Connection: close\r\n\
              \r\n\
              {\"error\": \"x\"}\n"
        );
    }

    #[test]
    fn respond_chunked_frames_each_nonempty_chunk_in_hex() {
        let mut out = Writes::default();
        let chunks: [&[u8]; 4] = [b"a\n", b"", b"abcdefghijklmnopqrstuvwxyz", b"\n"];
        respond_chunked(&mut out, 200, "application/jsonl", chunks).unwrap();
        assert_eq!(out.0.len(), 1, "one write per response that fits the buffer");
        assert_eq!(
            out.0.concat(),
            b"HTTP/1.1 200 OK\r\n\
              Content-Type: application/jsonl\r\n\
              Transfer-Encoding: chunked\r\n\
              Connection: close\r\n\
              \r\n\
              2\r\na\n\r\n\
              1a\r\nabcdefghijklmnopqrstuvwxyz\r\n\
              1\r\n\n\r\n\
              0\r\n\r\n"
        );
    }

    #[test]
    fn respond_chunked_round_trips_through_decode_chunked() {
        // Lines of growing length, well past one buffer's worth, so the
        // stream crosses several buffer flushes.
        let records: Vec<u8> = (0..400)
            .flat_map(|k| {
                let mut line = format!("{{\"k\": {k}, \"pad\": \"{}\"}}", "x".repeat(k % 97));
                line.push('\n');
                line.into_bytes()
            })
            .collect();
        let mut out = Vec::new();
        respond_chunked(
            &mut out,
            200,
            "application/jsonl",
            records.split_inclusive(|&b| b == b'\n'),
        )
        .unwrap();
        assert_eq!(decode_chunked(body_of(&out)).unwrap(), records);
    }

    #[test]
    fn respond_chunked_partial_stops_without_a_terminator() {
        let mut out = Vec::new();
        let chunks: [&[u8]; 3] = [b"", b"a\n", b"bcd\n"];
        respond_chunked_partial(&mut out, 200, "application/jsonl", chunks, 1).unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\n\
              Content-Type: application/jsonl\r\n\
              Transfer-Encoding: chunked\r\n\
              Connection: close\r\n\
              \r\n\
              2\r\na\n\r\n"
        );
        let err = decode_chunked(body_of(&out)).unwrap_err();
        assert!(err.to_string().contains("truncated chunk header"), "got {err}");
    }
}
