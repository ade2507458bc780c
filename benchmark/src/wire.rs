//! A client for the `bhserve` wire protocol, written against the protocol
//! and not against the `bhserve` crate: every message is a 4-byte
//! little-endian payload length followed by that many bytes of UTF-8 JSON.
//!
//! The four stages of a call are timed separately because that is as far as
//! a request can be broken down from outside the server: writing the frame,
//! waiting for the first byte of the answer, reading the rest, and decoding
//! the JSON.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serde::Value;

/// The server's frame cap; a longer declared length means the stream is
/// out of step and the connection is dropped.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l as usize <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame over the 8 MiB cap"))?;
    // One buffer, one write: with TCP_NODELAY set, header and payload would
    // otherwise leave as two segments.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame.  The length is bounded before anything is allocated.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    read_payload(r, header)
}

fn read_payload(r: &mut impl Read, header: [u8; 4]) -> io::Result<Vec<u8>> {
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds the 8 MiB cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// When each stage of one call ended, as instants, so the caller can turn
/// them into spans on its own clock.
#[derive(Debug, Clone, Copy)]
pub struct CallStamps {
    pub start: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub read: Instant,
    pub decoded: Instant,
}

impl CallStamps {
    pub fn latency(&self) -> Duration {
        self.decoded - self.start
    }
}

/// One answered call: the decoded response, the raw response text (for
/// byte-for-byte comparisons) and the stage stamps.
pub struct Reply {
    pub value: Value,
    pub raw: String,
    pub stamps: CallStamps,
}

/// A blocking connection that sends one request and waits for its answer —
/// a closed loop, which is how sweep scripts and `bhload` call the daemon.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: &SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true)?;
        // A wedged daemon must fail the benchmark, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream })
    }

    pub fn call(&mut self, request: &Value) -> io::Result<Reply> {
        let text = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let start = Instant::now();
        write_frame(&mut self.stream, text.as_bytes())?;
        let written = Instant::now();
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header)?;
        let first_byte = Instant::now();
        let payload = read_payload(&mut self.stream, header)?;
        let read = Instant::now();
        let raw = String::from_utf8(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let value = serde_json::from_str(&raw)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let decoded = Instant::now();
        Ok(Reply { value, raw, stamps: CallStamps { start, written, first_byte, read, decoded } })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A loopback server that echoes every frame back, wrapped as
    /// `{"ok": true, "echo": <request>}`.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut served = 0;
            while let Ok(payload) = read_frame(&mut stream) {
                let request = String::from_utf8(payload).unwrap();
                let answer = format!("{{\"ok\": true, \"echo\": {request}}}");
                write_frame(&mut stream, answer.as_bytes()).unwrap();
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn calls_round_trip_through_a_loopback_echo() {
        let (addr, server) = echo_server();
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        for i in 0..3u64 {
            let request = Value::Object(vec![
                ("op".to_string(), Value::String("ping".to_string())),
                ("i".to_string(), Value::UInt(i)),
            ]);
            let reply = conn.call(&request).unwrap();
            assert_eq!(reply.value.get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(reply.value.get("echo").unwrap().get("i").unwrap().as_u64(), Some(i));
            assert!(reply.raw.starts_with("{\"ok\": true"));
            let s = reply.stamps;
            assert!(s.start <= s.written && s.written <= s.first_byte);
            assert!(s.first_byte <= s.read && s.read <= s.decoded);
        }
        drop(conn);
        assert_eq!(server.join().unwrap(), 3, "the server saw a clean end of stream");
    }

    #[test]
    fn frames_carry_a_little_endian_length_and_are_bounded() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        assert_eq!(buf, [3, 0, 0, 0, b'a', b'b', b'c']);
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), b"abc");

        let oversized = (MAX_FRAME as u32 + 1).to_le_bytes();
        let err = read_frame(&mut oversized.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let truncated = [5u8, 0, 0, 0, b'x'];
        let err = read_frame(&mut truncated.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
