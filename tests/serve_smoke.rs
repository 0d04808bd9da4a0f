//! Service smoke test (mirrors the CI service-smoke job): an ephemeral
//! server, the committed example instances submitted concurrently,
//! every response parsed, the cache-hit counter exercised, and the
//! load-shedding path shown to answer with structured `BUSY`. The
//! adversarial clients (malformed, shed, slowloris, write stall,
//! endless line) run against every driver the platform has.

use rasengan::serve::{
    ping, serve, stats, submit, ReplyStatus, ServeConfig, SolveRequest, EVENT_LOOP_SUPPORTED,
};
use std::path::PathBuf;

/// Every driver this platform runs, as `ServeConfig::event_loop`
/// values: the reactor where supported, then the blocking driver.
fn drivers() -> &'static [bool] {
    if EVENT_LOOP_SUPPORTED {
        &[true, false]
    } else {
        &[false]
    }
}

fn instance_texts() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/instances");
    let mut instances: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/instances exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension()? != "problem" {
                return None;
            }
            let name = path.file_stem()?.to_string_lossy().into_owned();
            Some((name, std::fs::read_to_string(&path).ok()?))
        })
        .collect();
    instances.sort();
    assert!(
        instances.len() >= 5,
        "expected the committed example instances, found {}",
        instances.len()
    );
    instances
}

#[test]
fn concurrent_submissions_parse_and_hit_the_cache() {
    let server = serve(ServeConfig::default().with_workers(4)).unwrap();
    let addr = server.addr();

    assert_eq!(ping(addr).unwrap().status, ReplyStatus::Ok);

    let instances = instance_texts();
    let requests: Vec<SolveRequest> = instances
        .iter()
        .map(|(_, text)| {
            SolveRequest::new(text.clone())
                .with_seed(3)
                .with_shots(128)
                .with_iterations(8)
        })
        .collect();

    // Two rounds of every instance, all in flight at once: round one
    // populates the caches, round two must hit them. Each request
    // carries identical knobs, so the second round's responses must be
    // byte-identical to the first's.
    let first: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|request| {
                scope.spawn(move || {
                    let reply = submit(addr, request).expect("submit");
                    assert_eq!(reply.status, ReplyStatus::Ok);
                    reply.json("result").expect("result parses as JSON");
                    reply.json("timing").expect("timing parses as JSON");
                    reply.json("service").expect("service parses as JSON");
                    reply.section("result").unwrap().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let second: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|request| {
                scope.spawn(move || {
                    let reply = submit(addr, request).expect("submit");
                    assert_eq!(reply.status, ReplyStatus::Ok);
                    assert_eq!(
                        reply
                            .json("service")
                            .unwrap()
                            .get("cache")
                            .and_then(|c| c.as_str()),
                        Some("hit")
                    );
                    reply.section("result").unwrap().to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(first, second, "cached results must be byte-identical");

    // The counters saw all of it, via both the API and the wire.
    let snapshot = server.stats();
    assert!(snapshot.result_hits >= requests.len() as u64);
    assert_eq!(snapshot.served_ok, 2 * requests.len() as u64);
    let wire = stats(addr).unwrap();
    assert_eq!(wire.status, ReplyStatus::Ok);
    let wire_stats = wire.json("stats").unwrap();
    assert!(
        wire_stats
            .get("result_hits")
            .and_then(|v| v.as_i128())
            .unwrap()
            >= requests.len() as i128
    );
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_with_structured_busy() {
    for &event_loop in drivers() {
        // One worker, queue of one: most of a concurrent flood must be
        // shed, and every shed response must carry queue metadata.
        let server = serve(
            ServeConfig::default()
                .with_event_loop(event_loop)
                .with_workers(1)
                .with_queue_capacity(1),
        )
        .unwrap();
        let addr = server.addr();
        let (_, text) = instance_texts().into_iter().next().unwrap();
        let request = SolveRequest::new(text)
            .with_seed(1)
            .with_shots(256)
            .with_iterations(30);

        let statuses: Vec<ReplyStatus> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..12)
                .map(|_| {
                    let request = request.clone();
                    scope.spawn(move || {
                        let reply = submit(addr, &request).expect("submit");
                        if reply.status == ReplyStatus::Busy {
                            let service = reply.json("service").unwrap();
                            assert!(service.get("queue_capacity").is_some());
                            assert!(service.get("queue_depth").is_some());
                        }
                        reply.status
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let ok = statuses.iter().filter(|s| **s == ReplyStatus::Ok).count();
        let busy = statuses.iter().filter(|s| **s == ReplyStatus::Busy).count();
        assert!(ok >= 1, "event_loop={event_loop}: someone must be served");
        assert!(busy >= 1, "event_loop={event_loop}: a full queue must shed");
        assert_eq!(ok + busy, statuses.len(), "no malformed responses");
        assert_eq!(server.stats().shed, busy as u64, "event_loop={event_loop}");
        server.shutdown();
    }
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    // Admit work onto a single slow worker, then shut down while it is
    // still queued: shutdown must block until the queue drains, and
    // the queued requests must still be answered.
    let server = serve(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(8),
    )
    .unwrap();
    let addr = server.addr();
    let (_, text) = instance_texts().into_iter().next().unwrap();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|seed| {
                let request = SolveRequest::new(text.clone())
                    .with_seed(seed)
                    .with_shots(128)
                    .with_iterations(10);
                scope.spawn(move || submit(addr, &request).expect("submit").status)
            })
            .collect();
        // Give the requests time to be admitted, then shut down.
        std::thread::sleep(std::time::Duration::from_millis(100));
        server.shutdown();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), ReplyStatus::Ok);
        }
    });
}

#[test]
fn malformed_requests_get_structured_errors() {
    use std::io::{Read, Write};

    for &event_loop in drivers() {
        let server = serve(ServeConfig::default().with_event_loop(event_loop)).unwrap();
        let addr = server.addr();
        for bad in [
            "HTTP/1.1 GET /\r\n\r\n",
            "RASENGAN/1 DANCE\n",
            "RASENGAN/1 SOLVE\nvolume 11\nBEGIN PROBLEM\nEND PROBLEM\n",
            "RASENGAN/1 SOLVE\nBEGIN PROBLEM\nthis is not a problem\nEND PROBLEM\n",
        ] {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream.write_all(bad.as_bytes()).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            assert!(
                body.starts_with("RASENGAN/1 ERROR"),
                "event_loop={event_loop}: expected structured error, got: {body:?}"
            );
            assert!(body.contains("bad-request"), "got: {body:?}");
        }
        assert!(server.stats().bad_requests >= 4, "event_loop={event_loop}");
        server.shutdown();
    }
}

/// A request body with one enormous garbage line. The parse error
/// echoes the offending line back, so the reply is far larger than the
/// kernel socket buffers — a client that stops reading turns the reply
/// into a genuine TCP write stall.
fn stalling_request() -> String {
    format!(
        "RASENGAN/1 SOLVE\nBEGIN PROBLEM\n{}\nEND PROBLEM\n",
        "x".repeat(900 * 1024)
    )
}

fn smallest_instance() -> String {
    instance_texts()
        .into_iter()
        .map(|(_, text)| text)
        .min_by_key(String::len)
        .unwrap()
}

#[test]
fn slowloris_trickle_is_served_by_both_drivers() {
    use rasengan::serve::submit_trickled;
    for &event_loop in drivers() {
        // One byte every 10 ms against a 150 ms idle timeout: each byte
        // of progress must refresh the deadline, so the request
        // completes even though it takes ~2 s of wall clock — 13x the
        // timeout — to arrive.
        let server = serve(
            ServeConfig::default()
                .with_event_loop(event_loop)
                .with_io_timeout(std::time::Duration::from_millis(150)),
        )
        .unwrap();
        let addr = server.addr();
        let request = SolveRequest::new(smallest_instance())
            .with_seed(5)
            .with_shots(64)
            .with_iterations(4);

        let trickled = submit_trickled(addr, &request, 1, std::time::Duration::from_millis(10))
            .expect("trickled submit");
        assert_eq!(trickled.status, ReplyStatus::Ok, "event_loop={event_loop}");
        let plain = submit(addr, &request).expect("plain submit");
        assert_eq!(
            trickled.section("result").unwrap(),
            plain.section("result").unwrap(),
            "a slow client must get the same bytes as a fast one"
        );
        assert_eq!(
            server.stats().timeouts,
            0,
            "event_loop={event_loop}: progress must defuse the timer"
        );
        server.shutdown();
    }
}

#[test]
fn write_stall_times_out_and_closes_cleanly() {
    use std::io::Write;
    // The `SO_SNDBUF` pin this test depends on rides the raw syscall
    // shim; without it the kernel absorbs the reply and there is
    // nothing to time out.
    if !EVENT_LOOP_SUPPORTED {
        return;
    }
    for &event_loop in drivers() {
        // A single worker: on the blocking driver it writes the reply
        // itself, so the follow-up solve below is only served once the
        // stalled write has timed out and freed it. The pinned send
        // buffer keeps the kernel from absorbing the huge reply into an
        // autotuned multi-megabyte buffer — the reply must actually
        // stall against the non-reading client.
        let server = serve(
            ServeConfig::default()
                .with_event_loop(event_loop)
                .with_workers(1)
                .with_io_timeout(std::time::Duration::from_millis(300))
                .with_send_buffer_bytes(16 * 1024),
        )
        .unwrap();
        let addr = server.addr();

        // Send the stall-inducing request, then never read the reply.
        // The socket stays open (a close would fail the server's writes
        // fast with a reset instead of stalling them).
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(stalling_request().as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();

        // The server must notice the stalled write, attribute a
        // timeout, and drop the connection — without wedging the
        // reactor loop or pinning the worker.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = server.stats();
            if stats.timeouts >= 1 && stats.conns_open == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "event_loop={event_loop}: write stall never timed out: {stats:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        // The server is still healthy: a well-behaved client gets
        // served.
        let reply = submit(
            addr,
            &SolveRequest::new(smallest_instance())
                .with_seed(2)
                .with_shots(64)
                .with_iterations(4),
        )
        .expect("follow-up submit");
        assert_eq!(reply.status, ReplyStatus::Ok, "event_loop={event_loop}");
        drop(stream);
        server.shutdown();
    }
}

#[test]
fn legacy_write_timeout_frees_the_worker() {
    use std::io::Write;
    // The `SO_SNDBUF` pin this test depends on rides the same raw
    // syscall shim as the reactor; without it the kernel absorbs the
    // reply and there is nothing to time out.
    if !EVENT_LOOP_SUPPORTED {
        return;
    }
    // The blocking driver writes replies from its only worker; a client
    // that stops reading a huge reply must hit `SO_SNDTIMEO`, count a
    // timeout, and release the worker for the next request — not pin it
    // for the client's lifetime. Unlike the test above, the follow-up
    // is sent while the write is still stalled.
    let server = serve(
        ServeConfig::default()
            .with_event_loop(false)
            .with_workers(1)
            .with_io_timeout(std::time::Duration::from_millis(300))
            .with_send_buffer_bytes(16 * 1024),
    )
    .unwrap();
    let addr = server.addr();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(stalling_request().as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    // Give the worker a moment to start (and stall) the reply write.
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Blocks behind the stalled worker until the write timeout frees
    // it; succeeding at all is the regression being tested.
    let reply = submit(
        addr,
        &SolveRequest::new(smallest_instance())
            .with_seed(3)
            .with_shots(64)
            .with_iterations(4),
    )
    .expect("follow-up submit");
    assert_eq!(reply.status, ReplyStatus::Ok);
    assert!(
        server.stats().timeouts >= 1,
        "the stalled write must be counted as a timeout"
    );
    drop(stream);
    server.shutdown();
}

/// Reads a reply until EOF or a reset. A server that rejects a request
/// mid-upload closes with the client's unread bytes pending, which the
/// kernel turns into a reset after the reply bytes.
fn read_reply(stream: &mut std::net::TcpStream) -> String {
    use std::io::Read;
    let mut body = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        body.extend_from_slice(&buf[..n]);
    }
    String::from_utf8_lossy(&body).into_owned()
}

#[test]
fn unterminated_flood_is_rejected_promptly() {
    use rasengan::serve::protocol::MAX_PROBLEM_BYTES;
    use std::io::Write;
    for &event_loop in drivers() {
        // The io timeout is far longer than the parser needs to reach
        // the request cap: a `timeout` reply means the cap never
        // applied and the server buffered the whole flood.
        let io_timeout = std::time::Duration::from_secs(5);
        let server = serve(
            ServeConfig::default()
                .with_event_loop(event_loop)
                .with_workers(1)
                .with_io_timeout(io_timeout),
        )
        .unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let started = std::time::Instant::now();
        // The verb line, then twice the body cap with no newline. The
        // socket stays open throughout: `stream` outlives the writer.
        let flood = std::thread::spawn(move || {
            let _ = writer.write_all(b"RASENGAN/1 SOLVE\n");
            let chunk = vec![b'a'; 64 << 10];
            for _ in 0..2 * MAX_PROBLEM_BYTES / chunk.len() {
                if writer.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let body = read_reply(&mut stream);
        let elapsed = started.elapsed();
        flood.join().unwrap();
        let reply = rasengan::serve::Reply::parse(&body)
            .unwrap_or_else(|e| panic!("event_loop={event_loop}: {e}: {body:?}"));
        let error = reply.json("error").unwrap();
        assert_eq!(
            error.get("kind").and_then(|k| k.as_str()),
            Some("bad-request"),
            "event_loop={event_loop}: {body:?}"
        );
        assert!(
            error
                .get("message")
                .and_then(|m| m.as_str())
                .is_some_and(|m| m.contains("exceeds")),
            "event_loop={event_loop}: {body:?}"
        );
        assert!(
            elapsed < io_timeout,
            "event_loop={event_loop}: took {elapsed:?}"
        );
        let stats = server.stats();
        assert_eq!(stats.bad_requests, 1, "event_loop={event_loop}");
        assert_eq!(stats.timeouts, 0, "event_loop={event_loop}");
        drop(stream);
        server.shutdown();
    }
}

#[test]
fn idle_connections_are_cheap_for_the_reactor() {
    if !EVENT_LOOP_SUPPORTED {
        return;
    }
    // 512 connections that never send a byte: the reactor carries them
    // as table entries, not threads, so solves proceed unimpeded. (The
    // blocking driver's capacity is its worker count by design.)
    let server = serve(ServeConfig::default().with_event_loop(true).with_workers(2)).unwrap();
    let addr = server.addr();

    let idle: Vec<std::net::TcpStream> = (0..512)
        .map(|_| std::net::TcpStream::connect(addr).expect("idle connect"))
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.stats().conns_open < 512 {
        assert!(
            std::time::Instant::now() < deadline,
            "reactor never registered the idle connections: {}",
            server.stats().conns_open
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let reply = submit(
        addr,
        &SolveRequest::new(smallest_instance())
            .with_seed(4)
            .with_shots(64)
            .with_iterations(4),
    )
    .expect("submit with 512 idle connections held");
    assert_eq!(reply.status, ReplyStatus::Ok);
    assert!(server.stats().conns_open >= 512);

    // Dropping the clients must drain the table.
    drop(idle);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.stats().conns_open > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle connections never drained: {}",
            server.stats().conns_open
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.shutdown();
}
