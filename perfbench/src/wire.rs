//! A minimal keep-alive HTTP/1.1 client for the loopback workloads.
//!
//! `sd_serve::Client` reads responses through `sd_serve::http::
//! read_response`, which caps bodies at 1 MiB. A full-scale W3 result is
//! larger, so `Client::result` and `Client::shutdown` fail on it, and the
//! client's retry then re-sends the non-idempotent shutdown (see README.md,
//! "Known service defect"). This client reads bodies of any size and never
//! retries.

use sd_serve::http::Request;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
        })
    }

    /// Sends pre-rendered request bytes and reads the response.
    pub fn send(&mut self, raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.writer
            .write_all(raw)
            .map_err(|e| format!("send: {e}"))?;
        read_response(&mut self.reader)
    }

    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
        self.send(&render(method, path, body))
    }
}

pub fn render(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut req = Request::new(method, path);
    if !body.is_empty() {
        req.headers
            .push(("content-type".into(), "application/json".into()));
    }
    req.body = body.as_bytes().to_vec();
    req.render()
}

fn read_response(r: &mut impl BufRead) -> Result<(u16, Vec<u8>), String> {
    let mut line = String::new();
    let mut read_line = |line: &mut String| -> Result<(), String> {
        line.clear();
        match r.read_line(line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    };
    read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut len = 0usize;
    loop {
        read_line(&mut line)?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {v:?}"))?;
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| format!("receive body: {e}"))?;
    Ok((status, body))
}
