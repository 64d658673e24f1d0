//! TCP transport for the LG API: newline-delimited JSON frames, one
//! request → one response per line, mirroring how real LGs sit behind a
//! plain HTTP/JSON endpoint. Uses only `std::net` plus a thread per
//! connection — the LG workload is a single paced collector connection
//! (§3), not a high-fanout service.

#![expect(
    clippy::disallowed_methods,
    reason = "real-TCP transport is the boundary to wall-clock time (its deadline handling cannot flow through obs), its per-connection workers are I/O concurrency rather than data parallelism, and it carries the trace context across the wire"
)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::{LgError, LgRequest, LgResponse, TraceContext, TracedRequest};
use crate::client::LgTransport;
use crate::server::LgServer;

/// A running TCP LG server.
pub struct TcpLgServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    live_workers: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl TcpLgServer {
    /// Bind to `127.0.0.1:0` and serve `lg` until stopped. The server's
    /// clock is milliseconds since start (the rate limiter sees real
    /// pacing).
    pub fn spawn(lg: Arc<LgServer>) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let live_workers = Arc::new(AtomicUsize::new(0));
        let live2 = Arc::clone(&live_workers);
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                // Reap workers whose connection already closed, so a
                // long campaign of reconnecting clients does not grow
                // `workers` (and its parked threads) without bound.
                let mut i = 0;
                while i < workers.len() {
                    if workers[i].is_finished() {
                        let _ = workers.swap_remove(i).join();
                        live2.fetch_sub(1, Ordering::Relaxed);
                    } else {
                        i += 1;
                    }
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let lg = Arc::clone(&lg);
                        let stop = Arc::clone(&stop2);
                        live2.fetch_add(1, Ordering::Relaxed);
                        workers.push(std::thread::spawn(move || {
                            let _ = serve_connection(&lg, stream, start, &stop);
                        }));
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            // workers poll the stop flag on a read timeout, so joining
            // here cannot deadlock even with clients still connected
            for w in workers {
                let _ = w.join();
                live2.fetch_sub(1, Ordering::Relaxed);
            }
        });
        Ok(TcpLgServer {
            addr,
            stop,
            live_workers,
            handle: Some(handle),
        })
    }

    /// The bound address to connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker threads not yet reaped by the accept loop (closed
    /// connections are reclaimed on the next accept-loop pass).
    pub fn live_workers(&self) -> usize {
        self.live_workers.load(Ordering::Relaxed)
    }

    /// Stop accepting and join the acceptor thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpLgServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Longest request line the server reads (the largest real request is
/// ~130 bytes). A longer one is answered with an error and the
/// connection closed, so a peer cannot grow the buffer without bound.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Longest response line the client reads: two orders of magnitude above
/// the largest page the simulator serves (~150 KiB for 250 routes).
pub const MAX_RESPONSE_LINE: usize = 16 * 1024 * 1024;

/// Decode one request line, once: a frame is either a trace-wrapped
/// request or a bare one (untraced clients keep working), told apart by
/// the top-level `trace` key no bare request has.
fn decode_frame(line: &str) -> Result<(Option<TraceContext>, LgRequest), serde_json::Error> {
    let value = serde_json::parse_value(line)?;
    let traced = matches!(&value, serde_json::Value::Map(m) if m.iter().any(|(k, _)| k == "trace"));
    if traced {
        let TracedRequest { trace, req } = serde_json::from_value(value)?;
        Ok((Some(trace), req))
    } else {
        Ok((None, serde_json::from_value(value)?))
    }
}

fn write_response(
    writer: &mut TcpStream,
    result: &Result<LgResponse, LgError>,
) -> std::io::Result<()> {
    let mut out = serde_json::to_string(result)
        .unwrap_or_else(|e| format!("{{\"Err\":{{\"Transport\":\"encode: {e}\"}}}}"));
    out.push('\n');
    writer.write_all(out.as_bytes())?;
    writer.flush()
}

/// Answer a frame that cannot be served, then hang up. The peer may
/// still be sending: closing with its bytes unread resets the connection
/// and can destroy the answer in flight, so the write side is shut first
/// and input is discarded until the peer closes, goes quiet for one read
/// timeout, has sent [`MAX_REQUEST_LINE`] more bytes, or a second passed.
fn refuse(stream: &mut TcpStream, writer: &mut TcpStream, why: &str) -> std::io::Result<()> {
    write_response(
        writer,
        &Err(LgError::Transport(format!("bad request: {why}"))),
    )?;
    writer.shutdown(Shutdown::Write)?;
    let mut discarded = 0;
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(1);
    while discarded <= MAX_REQUEST_LINE && Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => discarded += n,
            _ => break,
        }
    }
    Ok(())
}

fn serve_connection(
    lg: &LgServer,
    mut stream: TcpStream,
    start: Instant,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    // A read timeout keeps the worker responsive to the stop flag even
    // while a paced client sits idle between requests; partial reads are
    // accumulated manually so a timeout never corrupts a frame.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut writer = stream.try_clone()?;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // client closed
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
        // serve every complete line in place, then drop them in one move
        let mut served = 0;
        while let Some(len) = buf[served..].iter().position(|b| *b == b'\n') {
            let line = &buf[served..served + len];
            served += len + 1;
            if line.len() > MAX_REQUEST_LINE {
                return refuse(&mut stream, &mut writer, "line too long");
            }
            let Ok(line) = std::str::from_utf8(line) else {
                return refuse(&mut stream, &mut writer, "line is not UTF-8");
            };
            if line.trim().is_empty() {
                continue;
            }
            let now_ms = start.elapsed().as_millis() as u64;
            let result = match decode_frame(line) {
                Ok((Some(trace), req)) => {
                    let _ctx = obs::trace::adopt_wire(obs::trace::WireCtx {
                        trace_id: trace.trace_id,
                        span_id: trace.span_id,
                        slot: trace.slot,
                    });
                    let _span = obs::span!(obs::names::LG_SERVE);
                    lg.handle(&req, now_ms)
                }
                Ok((None, req)) => lg.handle(&req, now_ms),
                Err(e) => Err(LgError::Transport(format!("bad request: {e}"))),
            };
            write_response(&mut writer, &result)?;
        }
        buf.drain(..served);
        if buf.len() > MAX_REQUEST_LINE {
            return refuse(&mut stream, &mut writer, "line too long");
        }
    }
}

/// A client-side TCP connection to an LG.
pub struct TcpLgClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpLgClient {
    /// Connect to a [`TcpLgServer`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(TcpLgClient {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

impl LgTransport for TcpLgClient {
    fn is_real_time(&self) -> bool {
        true
    }

    fn request(&mut self, req: &LgRequest, _now_ms: u64) -> Result<LgResponse, LgError> {
        // While tracing, carry the caller's context in the frame so the
        // server's serving spans join the caller's trace tree.
        let mut line = match obs::trace::wire_ctx() {
            Some(ctx) => serde_json::to_string(&TracedRequest {
                trace: TraceContext {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    slot: ctx.slot,
                },
                req: req.clone(),
            }),
            None => serde_json::to_string(req),
        }
        .map_err(|e| LgError::Transport(format!("encode: {e}")))?;
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| LgError::Transport(format!("send: {e}")))?;
        self.writer
            .flush()
            .map_err(|e| LgError::Transport(format!("flush: {e}")))?;
        let mut resp = String::new();
        (&mut self.reader)
            .take(MAX_RESPONSE_LINE as u64)
            .read_line(&mut resp)
            .map_err(|e| LgError::Transport(format!("recv: {e}")))?;
        if resp.is_empty() {
            return Err(LgError::Transport("connection closed".into()));
        }
        if !resp.ends_with('\n') && resp.len() >= MAX_RESPONSE_LINE {
            return Err(LgError::Transport("recv: response line too long".into()));
        }
        serde_json::from_str::<Result<LgResponse, LgError>>(&resp)
            .map_err(|e| LgError::Transport(format!("decode: {e}")))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Collector;
    use bgp_model::asn::Asn;
    use bgp_model::prefix::Afi;
    use bgp_model::route::Route;
    use community_dict::ixp::IxpId;
    use parking_lot::RwLock;
    use route_server::server::RouteServer;

    fn lg() -> Arc<LgServer> {
        let mut rs = RouteServer::for_ixp(IxpId::Netnod);
        rs.add_member(Asn(39120), true, false);
        rs.add_member(Asn(6939), true, false);
        for i in 0..30u8 {
            let r = Route::builder(
                format!("193.0.{i}.0/24").parse().unwrap(),
                "198.32.0.7".parse().unwrap(),
            )
            .path([39120, 15169])
            .build();
            rs.announce(Asn(39120), r);
        }
        Arc::new(LgServer::new(Arc::new(RwLock::new(rs)), 42))
    }

    #[test]
    fn tcp_roundtrip_single_request() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        let mut client = TcpLgClient::connect(server.addr()).unwrap();
        let resp = client
            .request(&LgRequest::Summary { afi: Afi::Ipv4 }, 0)
            .unwrap();
        let LgResponse::Summary { ixp, members } = resp else {
            panic!()
        };
        assert_eq!(ixp, IxpId::Netnod);
        assert_eq!(members.len(), 2);
        server.stop();
    }

    #[test]
    fn full_collection_over_tcp() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        let mut client = TcpLgClient::connect(server.addr()).unwrap();
        let collector = Collector::default();
        let report = collector.collect(&mut client, Afi::Ipv4, 0, 0).unwrap();
        assert!(!report.snapshot.partial);
        assert_eq!(report.snapshot.route_count(), 30);
        server.stop();
    }

    #[test]
    fn malformed_request_gets_transport_error() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"this is not json\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let result: Result<LgResponse, LgError> = serde_json::from_str(&line).unwrap();
        assert!(matches!(result, Err(LgError::Transport(_))));
        server.stop();
    }

    /// Send raw bytes on a fresh connection; return the first response
    /// line decoded, and the connection.
    fn raw_exchange(
        server: &TcpLgServer,
        bytes: &[u8],
    ) -> (Result<LgResponse, LgError>, BufReader<TcpStream>) {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        (
            serde_json::from_str(&line).expect("a response line"),
            reader,
        )
    }

    /// True once the server has closed its side.
    fn hung_up(mut reader: BufReader<TcpStream>) -> bool {
        matches!(reader.read_line(&mut String::new()), Ok(0))
    }

    fn assert_still_serving(server: &TcpLgServer) {
        let mut client = TcpLgClient::connect(server.addr()).unwrap();
        assert!(client
            .request(&LgRequest::Summary { afi: Afi::Ipv4 }, 0)
            .is_ok());
    }

    fn bad_request(result: Result<LgResponse, LgError>) -> String {
        match result {
            Err(LgError::Transport(msg)) if msg.starts_with("bad request: ") => msg,
            other => panic!("expected a bad-request transport error, got {other:?}"),
        }
    }

    #[test]
    fn over_long_line_is_refused_and_the_connection_closed() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        // no newline at all: the cap must bite before the frame ends
        let (result, conn) = raw_exchange(&server, &vec![b'['; 100_000]);
        assert!(bad_request(result).contains("too long"));
        assert!(
            hung_up(conn),
            "the server must hang up on an over-long line"
        );
        // and a complete line just over the cap is refused the same way
        let mut line = vec![b' '; MAX_REQUEST_LINE + 1];
        line.push(b'\n');
        let (result, conn) = raw_exchange(&server, &line);
        assert!(bad_request(result).contains("too long"));
        assert!(hung_up(conn));
        assert_still_serving(&server);
        server.stop();
    }

    #[test]
    fn deeply_nested_line_is_an_error_not_a_stack_overflow() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        // under the line cap, far over the parser's nesting cap: without
        // the cap this overflows the worker's stack and aborts the process
        let mut line = vec![b'['; 60_000];
        line.push(b'\n');
        let (result, mut conn) = raw_exchange(&server, &line);
        assert!(bad_request(result).contains("nesting"));
        // a parse error keeps the connection open
        conn.get_mut().write_all(b"\"RsConfig\"\n").unwrap();
        let mut answer = String::new();
        conn.read_line(&mut answer).unwrap();
        assert!(answer.starts_with("{\"Ok\":{\"RsConfig\""), "{answer}");
        assert_still_serving(&server);
        server.stop();
    }

    #[test]
    fn invalid_utf8_line_is_refused_and_the_connection_closed() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        // once lossily decoded this was a valid request for the wrong
        // thing; now the bytes are refused as they are
        let (result, conn) = raw_exchange(&server, b"\"RsConfig\xff\"\n");
        assert!(bad_request(result).contains("UTF-8"));
        assert!(hung_up(conn));
        assert_still_serving(&server);
        server.stop();
    }

    #[test]
    fn bare_and_traced_frames_are_both_served_on_one_connection() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let req = LgRequest::Summary { afi: Afi::Ipv4 };
        let traced = TracedRequest {
            trace: TraceContext {
                trace_id: 1,
                span_id: 2,
                slot: 3,
            },
            req: req.clone(),
        };
        // both frames in one write, blank line between: framing, not
        // packet boundaries, separates requests
        let frames = format!(
            "{}\n\n{}\n\"RsConfig\"\n",
            serde_json::to_string(&req).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
        writer.write_all(frames.as_bytes()).unwrap();
        let mut responses = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let result: Result<LgResponse, LgError> = serde_json::from_str(&line).unwrap();
            responses.push(result.unwrap());
        }
        assert_eq!(responses[0], responses[1]);
        assert!(matches!(responses[0], LgResponse::Summary { .. }));
        assert!(matches!(responses[2], LgResponse::RsConfig { .. }));
        server.stop();
    }

    #[test]
    fn finished_workers_are_reaped_during_accept_loop() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        for _ in 0..8 {
            let mut client = TcpLgClient::connect(server.addr()).unwrap();
            assert!(client
                .request(&LgRequest::Summary { afi: Afi::Ipv4 }, 0)
                .is_ok());
            drop(client); // connection closes; its worker thread exits
        }
        // The accept loop reaps on its next pass (it wakes every ~5ms on
        // WouldBlock); give it a few passes, then all eight must be gone.
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.live_workers() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            server.live_workers(),
            0,
            "closed connections' workers were never reaped"
        );
        server.stop();
    }

    #[test]
    fn traced_request_parents_server_span_to_client_span() {
        let registry = obs::global();
        registry.enable_tracing();
        let server = TcpLgServer::spawn(lg()).unwrap();
        let mut client = TcpLgClient::connect(server.addr()).unwrap();
        let client_ids;
        {
            let _span = registry.span(obs::names::SIM_COLLECT_IXP);
            client_ids = obs::trace::capture()
                .and_then(|c| c.ids)
                .expect("tracing on");
            client
                .request(&LgRequest::Summary { afi: Afi::Ipv4 }, 0)
                .unwrap();
        }
        // The server worker thread records lg.serve into the same global
        // registry (same process); wait for it to land.
        let deadline = Instant::now() + Duration::from_secs(2);
        let serve = loop {
            if let Some(s) = registry
                .trace_spans()
                .into_iter()
                .find(|s| s.name == obs::names::LG_SERVE && s.parent_id == client_ids.span_id)
            {
                break Some(s);
            }
            if Instant::now() >= deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let serve = serve.expect("lg.serve span parented to the client span");
        assert_eq!(serve.trace_id, client_ids.trace_id);
        server.stop();
    }

    #[test]
    fn two_clients_share_one_server() {
        let server = TcpLgServer::spawn(lg()).unwrap();
        let mut a = TcpLgClient::connect(server.addr()).unwrap();
        let mut b = TcpLgClient::connect(server.addr()).unwrap();
        assert!(a.request(&LgRequest::Summary { afi: Afi::Ipv4 }, 0).is_ok());
        assert!(b.request(&LgRequest::Summary { afi: Afi::Ipv4 }, 0).is_ok());
        assert!(a.request(&LgRequest::RsConfig, 0).is_ok());
        server.stop();
    }
}
