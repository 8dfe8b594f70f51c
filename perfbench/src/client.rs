//! The load generator's own HTTP/1.1 client.
//!
//! It holds one keep-alive connection, sets `TCP_NODELAY`, and hands
//! each request to the kernel in a single `write`, so the generator adds
//! no Nagle / delayed-ACK stall of its own: any such stall measured at
//! the client belongs to the system under test.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete request, head and body in one buffer.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: exq\r\nconnection: keep-alive\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Header (lower-cased name, value) pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The first header named `name` (lower case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// A field of the `X-Exq-Cost` header, e.g. `cache` or `epoch`.
    pub fn cost(&self, field: &str) -> Option<&str> {
        self.header("x-exq-cost")?.split(';').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == field).then_some(v)
        })
    }
}

/// One keep-alive connection to `addr`.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
        }
    }

    /// Send `request` (from [`request_bytes`]) and read the whole reply.
    /// A keep-alive stream the server closed while idle is reopened once.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let reused = self.stream.is_some();
        match self.try_once(request) {
            Ok(reply) => Ok(reply),
            Err((error, received)) => {
                self.stream = None;
                if reused && received == 0 {
                    self.try_once(request).map_err(|(e, _)| {
                        self.stream = None;
                        e
                    })
                } else {
                    Err(error)
                }
            }
        }
    }

    fn try_once(&mut self, request: &[u8]) -> Result<Reply, (std::io::Error, usize)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| (e, 0))?;
            stream.set_nodelay(true).map_err(|e| (e, 0))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| (e, 0))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("stream was just opened");
        stream.write_all(request).map_err(|e| (e, 0))?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((head_end, len)) = framing(&self.buf) {
                if self.buf.len() >= head_end + len {
                    break;
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    let received = self.buf.len();
                    return Err((
                        std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "connection closed before the reply was complete",
                        ),
                        received,
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err((e, self.buf.len())),
            }
        }
        let reply = parse(&self.buf).ok_or_else(|| {
            (
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed reply"),
                self.buf.len(),
            )
        })?;
        if reply
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.stream = None;
        }
        Ok(reply)
    }
}

/// `(head length, content length)` once the head is complete.
fn framing(buf: &[u8]) -> Option<(usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let len = head
        .split("\r\n")
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    Some((head_end, len))
}

fn parse(buf: &[u8]) -> Option<Reply> {
    let (head_end, len) = framing(buf)?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    Some(Reply {
        status,
        headers,
        body: buf[head_end..head_end + len].to_vec(),
    })
}
