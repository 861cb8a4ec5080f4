//! Line I/O shared by `calib-serve` and `calib-router`: the sink that
//! writes JSON lines out, the bounded reader that reads request lines in,
//! and the accept loop that serves each TCP connection on its own thread.
//!
//! Every line either binary sends — replies, relayed shard replies,
//! metrics snapshots and log lines — goes through a [`LineSink`]. Every
//! request line either binary reads goes through [`read_lines`], which
//! enforces [`MAX_LINE_BYTES`] and answers the transport faults itself.

use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::Duration;

use calib_core::json::Json;

use crate::metrics::{lock, ServeMetrics};
use crate::protocol::{Reply, MAX_LINE_BYTES};

/// A shared, mutex-guarded writer of whole lines: one client connection,
/// or one log channel such as stdout.
///
/// The `send*` methods write one line and flush it. The daemon's workers
/// and the router's relays instead write each line and `flush` once per
/// batch. The first write or flush error shuts the sink off for good: the
/// peer is gone, and the thread reading from it notices on its own side.
/// So a dead client, metrics consumer or log reader never takes the
/// process down.
pub struct LineSink {
    writer: Mutex<Option<SinkWriter>>,
    /// A daemon connection counts its `replies` and `reply_flushes` here.
    metrics: Option<Arc<ServeMetrics>>,
}

/// A live sink's writer.
struct SinkWriter {
    out: Box<dyn Write + Send>,
    /// At least one line was written since the last flush.
    unflushed: bool,
}

impl fmt::Debug for LineSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LineSink")
    }
}

impl LineSink {
    /// A sink over any writer. It counts nothing.
    pub fn new(out: Box<dyn Write + Send>) -> LineSink {
        LineSink {
            writer: Mutex::new(Some(SinkWriter {
                out,
                unflushed: false,
            })),
            metrics: None,
        }
    }

    /// A daemon connection's reply sink, counting every line and flush
    /// into `metrics`.
    pub(crate) fn counted(out: Box<dyn Write + Send>, metrics: &Arc<ServeMetrics>) -> LineSink {
        LineSink {
            metrics: Some(Arc::clone(metrics)),
            ..LineSink::new(out)
        }
    }

    /// Writes one reply and flushes it.
    pub fn send(&self, reply: &Reply) {
        self.send_line(&reply.to_line());
    }

    /// Writes one JSON value as a compact line and flushes it.
    pub fn send_json(&self, value: &Json) {
        let mut line = value.to_string_compact();
        line.push('\n');
        self.send_line(&line);
    }

    /// Writes one line, which must end in `\n`, and flushes it.
    pub fn send_line(&self, line: &str) {
        self.write_line(line);
        self.flush();
    }

    /// Writes one reply into the buffer without flushing it.
    pub(crate) fn write(&self, reply: &Reply) {
        self.write_line(&reply.to_line());
    }

    /// Writes one line, which must end in `\n`, without flushing it.
    pub fn write_line(&self, line: &str) {
        // The writer lock is the line serialization point: it spans the
        // whole write, so lines from several threads never interleave.
        // lint:allow(lock-discipline): deliberate hold across the write
        let mut guard = lock(&self.writer);
        if let Some(w) = guard.as_mut() {
            // Counted before the bytes can reach the peer (a line longer
            // than the buffer goes straight through), so a client that
            // reads this reply and then asks for `metrics` sees it counted.
            if let Some(m) = &self.metrics {
                m.replies.fetch_add(1, Ordering::Relaxed);
            }
            if w.out.write_all(line.as_bytes()).is_err() {
                *guard = None;
                return;
            }
            w.unflushed = true;
        }
    }

    /// Pushes every line written so far to the peer; a no-op when none is
    /// pending (another thread's flush already carried it).
    pub fn flush(&self) {
        // Same serialization point as `write_line`: a flush must not
        // interleave with a half-written line.
        // lint:allow(lock-discipline): deliberate hold across the flush
        let mut guard = lock(&self.writer);
        if let Some(w) = guard.as_mut().filter(|w| w.unflushed) {
            // Counted before the flush, for the same reason as `replies`.
            if let Some(m) = &self.metrics {
                m.reply_flushes.fetch_add(1, Ordering::Relaxed);
            }
            if w.out.flush().is_err() {
                *guard = None;
                return;
            }
            w.unflushed = false;
        }
    }
}

/// What [`read_lines`] hands request lines to. Any
/// `FnMut(&str, Json) -> bool` closure is one.
pub trait LineHandler {
    /// Handles one non-blank request line, trimmed and parsed; returning
    /// `false` ends the loop.
    fn line(&mut self, line: &str, parsed: Json) -> bool;

    /// Called whenever no complete line is buffered, so the next read may
    /// wait on the peer: whatever the handler holds back must go out now.
    fn caught_up(&mut self) {}
}

impl<F: FnMut(&str, Json) -> bool> LineHandler for F {
    fn line(&mut self, line: &str, parsed: Json) -> bool {
        self(line, parsed)
    }
}

/// Reads request lines from `input` until EOF, a read error, or `handler`
/// returning `false`, and hands each non-blank line to `handler` trimmed
/// and parsed. Before every read that may wait on the peer — no complete
/// line is left in the buffer, though part of one may be — it calls
/// [`LineHandler::caught_up`], whether or not the last line reached the
/// handler.
///
/// Transport faults are answered on `sink` here. A line over
/// [`MAX_LINE_BYTES`] gets `line-too-long`, and the rest of it is skipped,
/// so the next line is read whole and the connection stays open. A line
/// that is not UTF-8 or does not parse gets `bad-json`; the reply for bad
/// UTF-8 echoes none of the line's bytes. A read timeout gets
/// `read-timeout` and ends the loop.
pub fn read_lines(input: impl Read, sink: &LineSink, mut handler: impl LineHandler) {
    let mut reader = BufReader::new(input);
    let mut line = Vec::new();
    loop {
        if !reader.buffer().contains(&b'\n') {
            handler.caught_up();
        }
        line.clear();
        match read_bounded_line(&mut reader, &mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                sink.send(&Reply::error("line-too-long", e.to_string(), None, None));
                continue;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                // The socket read timeout fired: tell the (possibly hung)
                // peer why it is being dropped, then disconnect.
                sink.send(&Reply::error(
                    "read-timeout",
                    "no complete request line within the read timeout; disconnecting",
                    None,
                    None,
                ));
                break;
            }
            Err(_) => break,
        }
        let Ok(line) = std::str::from_utf8(&line) else {
            sink.send(&Reply::error(
                "bad-json",
                "request line is not valid UTF-8",
                None,
                None,
            ));
            continue;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let parsed = match Json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => {
                sink.send(&Reply::error("bad-json", e.to_string(), None, None));
                continue;
            }
        };
        if !handler.line(trimmed, parsed) {
            break;
        }
    }
}

/// Reads one `\n`-terminated line of raw bytes, rejecting lines over
/// [`MAX_LINE_BYTES`].
/// A peer streaming an endless line must not balloon the buffer, so the
/// rest of an oversized line is read and dropped in buffer-sized pieces.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<usize> {
    let mut taken = reader.take(u64::try_from(MAX_LINE_BYTES).unwrap_or(u64::MAX));
    let n = taken.read_until(b'\n', line)?;
    if n >= MAX_LINE_BYTES && line.last() != Some(&b'\n') {
        let reader = taken.get_mut();
        loop {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                break;
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    reader.consume(i + 1);
                    break;
                }
                None => {
                    let len = buf.len();
                    reader.consume(len);
                }
            }
        }
        line.clear();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    Ok(n)
}

/// Accepts TCP connections on `listener` and serves each on its own
/// thread of `scope`, until the listener fails or goes idle.
///
/// `connections` counts every accepted connection and `active` the ones
/// still open. Each socket gets `TCP_NODELAY` and `read_timeout`; `serve`
/// receives the connection's number (its `connections` count, so the
/// first is 1), the socket as the read half, and a buffered clone of it
/// as the write half. The listener is switched to non-blocking, and while
/// no connection is pending the loop polls every 5 ms. It returns once at
/// least one connection was accepted, none is open, and `idle` agrees.
pub fn accept_loop<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    listener: &TcpListener,
    read_timeout: Option<Duration>,
    connections: &'env AtomicU64,
    active: &'env AtomicU64,
    idle: impl Fn() -> bool,
    serve: impl Fn(u64, TcpStream, Box<dyn Write + Send>) + Copy + Send + 'env,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let conn = connections.fetch_add(1, Ordering::Relaxed) + 1;
                active.fetch_add(1, Ordering::Relaxed);
                scope.spawn(move || {
                    stream.set_nodelay(true).ok();
                    if let Some(timeout) = read_timeout {
                        stream.set_read_timeout(Some(timeout)).ok();
                    }
                    let write_half: Box<dyn Write + Send> = match stream.try_clone() {
                        Ok(s) => Box::new(BufWriter::new(s)),
                        Err(_) => Box::new(io::sink()),
                    };
                    serve(conn, stream, write_half);
                    active.fetch_sub(1, Ordering::Relaxed);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if connections.load(Ordering::Relaxed) > 0
                    && active.load(Ordering::Relaxed) == 0
                    && idle()
                {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_survives_a_dead_writer() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = LineSink::new(Box::new(Dead));
        let m = ServeMetrics::new();
        // Both writes are absorbed; the second hits the shut-off sink.
        sink.send_json(&m.snapshot_json());
        sink.send_json(&m.snapshot_json());
    }

    /// A writer the test can read back while the sink holds it.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Delivers `chunks` one per read. Before each read after the first
    /// — where a socket would wait on the peer — it records what the peer
    /// has received so far.
    struct Chunked {
        chunks: Vec<&'static [u8]>,
        next: usize,
        peer: Shared,
        seen_at_pause: Vec<String>,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.next > 0 {
                let seen = String::from_utf8(lock(&self.peer.0).clone()).unwrap();
                self.seen_at_pause.push(seen);
            }
            let Some(chunk) = self.chunks.get(self.next) else {
                return Ok(0);
            };
            self.next += 1;
            buf[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    /// A handler that holds its answers back until `caught_up`, as the
    /// router holds forwarded lines: a complete line followed by half of
    /// the next one is still answered before the reader waits for the
    /// rest, and so are lines that never reach the handler.
    #[test]
    fn caught_up_fires_before_a_read_that_may_wait() {
        let peer = Shared::default();
        let sink = LineSink::new(Box::new(BufWriter::new(peer.clone())));
        let mut input = Chunked {
            chunks: vec![
                b"{\"type\":\"ping\"}\n{\"ty",
                b"pe\":\"ping\",\"seq\":2}\n\n",
                b"{\"type\":\"ping\",\"seq\":3}\nnot json\n",
            ],
            next: 0,
            peer: peer.clone(),
            seen_at_pause: Vec::new(),
        };
        struct Holding<'a> {
            sink: &'a LineSink,
            held: Vec<String>,
        }
        impl LineHandler for Holding<'_> {
            fn line(&mut self, _: &str, parsed: Json) -> bool {
                let seq = parsed.get("seq").and_then(Json::as_u64).unwrap_or(0);
                self.held.push(format!("pong {seq}\n"));
                true
            }
            fn caught_up(&mut self) {
                for line in self.held.drain(..) {
                    self.sink.write_line(&line);
                }
                self.sink.flush();
            }
        }
        read_lines(
            &mut input,
            &sink,
            Holding {
                sink: &sink,
                held: Vec::new(),
            },
        );
        let at_pause = &input.seen_at_pause;
        assert_eq!(at_pause.len(), 3, "{at_pause:?}");
        assert_eq!(at_pause[0], "pong 0\n");
        // The last complete line is blank, then one that does not parse:
        // neither reaches the handler, and the held pong still leaves
        // before the next read.
        assert_eq!(at_pause[1], "pong 0\npong 2\n");
        assert!(
            at_pause[2].contains("\"code\":\"bad-json\""),
            "{at_pause:?}"
        );
        assert!(at_pause[2].ends_with("pong 3\n"), "{at_pause:?}");
    }
}
