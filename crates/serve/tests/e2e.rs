//! End-to-end daemon tests over real sockets: byte-identity with the
//! in-process simulator, bounded-queue backpressure, poisoned-cell
//! isolation and recovery, and graceful shutdown.

use cq_serve::{simulate_cell, Cell, Frame, LoadOptions, Server, ServerConfig, SweepRequest};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Binds an ephemeral port and serves on a background thread.
fn start(cfg: ServerConfig) -> (String, Arc<AtomicBool>, JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle, join)
}

fn stop(handle: &Arc<AtomicBool>, join: JoinHandle<()>) {
    handle.store(true, Ordering::SeqCst);
    join.join().expect("server thread");
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let read_half = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Frame {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Frame::parse(line.trim()).expect("frame")
    }
}

fn sweep(id: &str, nets: &[&str], configs: &[&str], optimizers: &[&str]) -> SweepRequest {
    let owned = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
    SweepRequest {
        id: id.into(),
        nets: owned(nets),
        configs: owned(configs),
        optimizers: owned(optimizers),
    }
}

/// A reusable open/wait latch for fault hooks.
#[derive(Clone)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn new() -> Gate {
        Gate(Arc::new((Mutex::new(false), Condvar::new())))
    }

    fn open(&self) {
        let (m, c) = &*self.0;
        *m.lock().unwrap() = true;
        c.notify_all();
    }

    fn wait(&self) {
        let (m, c) = &*self.0;
        let mut open = m.lock().unwrap();
        while !*open {
            open = c.wait(open).unwrap();
        }
    }
}

#[test]
fn daemon_records_are_byte_identical_to_direct_simulation() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);

    let req = sweep(
        "ident",
        &["squeezenet"],
        &["edge", "edge-int4"],
        &["sgd", "adam"],
    );
    let expected: Vec<Cell> = req.cells();
    client.send(&req.encode());

    match client.recv() {
        Frame::Accepted { id, cells } => {
            assert_eq!(id, "ident");
            assert_eq!(cells, 4);
        }
        other => panic!("expected accepted, got {other:?}"),
    }
    let mut seen = 0;
    loop {
        match client.recv() {
            Frame::Cell { id, cell, record } => {
                assert_eq!(id, "ident");
                assert!(expected.contains(&cell), "unexpected cell {cell}");
                // The acceptance condition: daemon bytes == direct bytes.
                assert_eq!(record, simulate_cell(&cell).unwrap(), "cell {cell}");
                seen += 1;
            }
            Frame::Done {
                id,
                cells,
                errors,
                counters,
            } => {
                assert_eq!(id, "ident");
                assert_eq!((cells, errors), (4, 0));
                assert!(
                    counters.iter().any(|(k, _)| k == "serve.cells_ok"),
                    "done frame carries serve.* counters: {counters:?}"
                );
                assert!(
                    counters.iter().any(|(k, _)| k.starts_with("sim.")),
                    "done frame carries sim.* counters: {counters:?}"
                );
                break;
            }
            other => panic!("expected cell/done, got {other:?}"),
        }
    }
    assert_eq!(seen, 4);

    // Same sweep again: records must be stable (served from cache).
    client.send(
        &sweep(
            "ident2",
            &["squeezenet"],
            &["edge", "edge-int4"],
            &["sgd", "adam"],
        )
        .encode(),
    );
    loop {
        match client.recv() {
            Frame::Cell { cell, record, .. } => {
                assert_eq!(record, simulate_cell(&cell).unwrap());
            }
            Frame::Done { errors, .. } => {
                assert_eq!(errors, 0);
                break;
            }
            Frame::Accepted { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }

    stop(&handle, join);
}

#[test]
fn invalid_requests_get_error_frames_and_the_connection_survives() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);

    client.send("{\"type\":\"ping\"}");
    assert_eq!(client.recv(), Frame::Pong);

    // Far past the JSON nesting limit: an error frame, not a stack overflow.
    let deep = "[".repeat(200_000);
    for bad in [
        "this is not json",
        "{\"id\":\"x\",\"nets\":[\"nope\"],\"configs\":[\"edge\"],\"optimizers\":[\"sgd\"]}",
        "{\"type\":\"sweep\"}",
        &deep,
    ] {
        client.send(bad);
        match client.recv() {
            Frame::Error { error } => assert!(!error.is_empty()),
            other => panic!(
                "expected error frame for {:?}, got {other:?}",
                &bad[..bad.len().min(80)]
            ),
        }
    }

    // Still serviceable after four bad requests.
    client.send("{\"type\":\"ping\"}");
    assert_eq!(client.recv(), Frame::Pong);

    stop(&handle, join);
}

#[test]
fn over_long_line_gets_an_error_frame_and_the_daemon_survives() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);
    // Fail rather than hang if the daemon keeps buffering the line.
    let timeout = Some(Duration::from_secs(30));
    client
        .reader
        .get_ref()
        .set_read_timeout(timeout)
        .expect("timeout");

    // 2 MiB with no newline, twice the daemon's 1 MiB frame cap.
    client.writer.write_all(&vec![b'x'; 2 << 20]).expect("send");
    client.writer.flush().expect("flush");
    match client.recv() {
        Frame::Error { error } => assert!(error.contains("longer than"), "{error}"),
        other => panic!("expected error frame, got {other:?}"),
    }
    // The daemon closes that connection after the frame.
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).expect("eof"), 0);

    let mut fresh = Client::connect(&addr);
    fresh.send("{\"type\":\"ping\"}");
    assert_eq!(fresh.recv(), Frame::Pong);

    stop(&handle, join);
}

#[test]
fn full_queue_rejects_with_retry_advice_and_oversized_grids_error() {
    let gate = Gate::new();
    let entered = Gate::new();
    let hook = {
        let (gate, entered) = (gate.clone(), entered.clone());
        move |_cell: &Cell, _attempt: u32| {
            entered.open();
            gate.wait();
        }
    };
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        retry_after_ms: 7,
        fault: Some(Arc::new(hook)),
        ..ServerConfig::default()
    });

    // A: admitted immediately, popped by the lone worker, which then
    // blocks inside the fault hook.
    let mut a = Client::connect(&addr);
    a.send(&sweep("a", &["squeezenet"], &["edge"], &["sgd"]).encode());
    assert!(matches!(a.recv(), Frame::Accepted { cells: 1, .. }));
    entered.wait(); // the worker is now provably busy with A's cell

    // B: fills the queue's single slot.
    let mut b = Client::connect(&addr);
    b.send(&sweep("b", &["squeezenet"], &["edge"], &["adam"]).encode());
    assert!(matches!(b.recv(), Frame::Accepted { cells: 1, .. }));

    // C: nothing free -> rejected with the configured retry advice,
    // and nothing about C is buffered server-side.
    let mut c = Client::connect(&addr);
    let creq = sweep("c", &["squeezenet"], &["edge"], &["rmsprop"]);
    c.send(&creq.encode());
    match c.recv() {
        Frame::Rejected {
            id,
            reason,
            retry_after_ms,
        } => {
            assert_eq!(id, "c");
            assert!(reason.contains("queue full"), "{reason}");
            assert_eq!(retry_after_ms, 7);
        }
        other => panic!("expected rejected, got {other:?}"),
    }

    // A grid bigger than the queue can never be admitted — unless it
    // coalesces. These cells are not in flight (C's rmsprop was
    // rejected, adagrad never submitted), so the typed error fires
    // instead of an infinite retry loop.
    let mut big = Client::connect(&addr);
    big.send(&sweep("big", &["squeezenet"], &["edge"], &["adagrad", "rmsprop"]).encode());
    match big.recv() {
        Frame::Error { error } => assert!(error.contains("can never fit"), "{error}"),
        other => panic!("expected error, got {other:?}"),
    }

    // Unblock the worker: A and B complete, and C's retry succeeds.
    gate.open();
    for client in [&mut a, &mut b] {
        loop {
            match client.recv() {
                Frame::Done { errors, .. } => {
                    assert_eq!(errors, 0);
                    break;
                }
                Frame::Cell { .. } => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    c.send(&creq.encode());
    loop {
        match c.recv() {
            Frame::Done { errors, .. } => {
                assert_eq!(errors, 0);
                break;
            }
            Frame::Accepted { .. } | Frame::Cell { .. } => {}
            Frame::Rejected { retry_after_ms, .. } => {
                // Worker may still be finishing B; honour the advice.
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                c.send(&creq.encode());
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    stop(&handle, join);
}

#[test]
fn duplicate_inflight_cells_coalesce_without_queue_slots() {
    let gate = Gate::new();
    let entered = Gate::new();
    let hook = {
        let (gate, entered) = (gate.clone(), entered.clone());
        move |cell: &Cell, _attempt: u32| {
            // Block only the first (sgd) cell so duplicates provably
            // arrive while it is in flight; the adam cell runs free.
            if cell.optimizer == "sgd" {
                entered.open();
                gate.wait();
            }
        }
    };
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        fault: Some(Arc::new(hook)),
        ..ServerConfig::default()
    });

    // A: admitted, popped by the lone worker, blocked inside the hook.
    let mut a = Client::connect(&addr);
    a.send(&sweep("a", &["squeezenet"], &["edge"], &["sgd"]).encode());
    assert!(matches!(a.recv(), Frame::Accepted { cells: 1, .. }));
    entered.wait();

    // X: a *different* cell fills the queue's only slot.
    let mut x = Client::connect(&addr);
    x.send(&sweep("x", &["squeezenet"], &["edge"], &["adam"]).encode());
    assert!(matches!(x.recv(), Frame::Accepted { cells: 1, .. }));

    // B: identical to A's in-flight cell. The queue is full, so without
    // coalescing this would be rejected; with coalescing it attaches a
    // waiter and is accepted without consuming a slot.
    let mut b = Client::connect(&addr);
    b.send(&sweep("b", &["squeezenet"], &["edge"], &["sgd"]).encode());
    assert!(matches!(b.recv(), Frame::Accepted { cells: 1, .. }));

    // C: two copies of the same cell in one grid (duplicate net
    // keyword) — both coalesce onto A's job, zero slots needed even
    // though the grid is bigger than the whole queue.
    let mut c = Client::connect(&addr);
    c.send(&sweep("c", &["squeezenet", "squeezenet"], &["edge"], &["sgd"]).encode());
    assert!(matches!(c.recv(), Frame::Accepted { cells: 2, .. }));

    gate.open();

    let collect = |client: &mut Client, want_cells: usize| -> Vec<String> {
        let mut records = Vec::new();
        loop {
            match client.recv() {
                Frame::Cell { record, .. } => records.push(record),
                Frame::Done {
                    cells,
                    errors,
                    counters,
                    ..
                } => {
                    assert_eq!((cells, errors), (want_cells, 0));
                    assert!(
                        counters
                            .iter()
                            .any(|(k, v)| k == "serve.coalesced" && *v >= 3),
                        "serve.coalesced should count all 3 attached waiters: {counters:?}"
                    );
                    break;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        records
    };
    let ra = collect(&mut a, 1);
    let rb = collect(&mut b, 1);
    let rc = collect(&mut c, 2);
    let _ = collect(&mut x, 1);

    // Byte-identity across every requester of the coalesced cell, and
    // against a direct in-process simulation.
    let direct = simulate_cell(&Cell {
        net: "squeezenet".into(),
        config: "edge".into(),
        optimizer: "sgd".into(),
    })
    .unwrap();
    assert_eq!(ra, vec![direct.clone()]);
    assert_eq!(rb, ra, "coalesced requester must get byte-identical record");
    assert_eq!(rc, vec![direct.clone(), direct]);

    stop(&handle, join);
}

#[test]
fn poisoned_cell_becomes_cell_error_and_siblings_survive() {
    let hook = |cell: &Cell, _attempt: u32| {
        if cell.optimizer == "adagrad" {
            panic!("poisoned cell {cell}");
        }
    };
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        retry: cq_resil::RetryPolicy::default().with_attempts(2),
        fault: Some(Arc::new(hook)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    client.send(&sweep("p", &["squeezenet"], &["edge"], &["sgd", "adagrad", "adam"]).encode());

    assert!(matches!(client.recv(), Frame::Accepted { cells: 3, .. }));
    let (mut ok, mut failed) = (Vec::new(), Vec::new());
    loop {
        match client.recv() {
            Frame::Cell { cell, record, .. } => {
                assert_eq!(record, simulate_cell(&cell).unwrap());
                ok.push(cell.optimizer.clone());
            }
            Frame::CellError { cell, error, .. } => {
                assert!(error.contains("poisoned cell"), "{error}");
                failed.push(cell.optimizer.clone());
            }
            Frame::Done { cells, errors, .. } => {
                assert_eq!((cells, errors), (3, 1));
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    ok.sort();
    assert_eq!(ok, ["adam", "sgd"]);
    assert_eq!(failed, ["adagrad"]);

    // The worker survived the panic: the daemon still serves.
    client.send("{\"type\":\"ping\"}");
    assert_eq!(client.recv(), Frame::Pong);

    stop(&handle, join);
}

#[test]
fn transient_fault_is_retried_to_success() {
    // Panic only on the first attempt of each cell: with a 2-attempt
    // budget every cell must still come back as a clean record.
    let hook = |_cell: &Cell, attempt: u32| {
        if attempt == 1 {
            panic!("transient fault");
        }
    };
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        retry: cq_resil::RetryPolicy::default().with_attempts(2),
        fault: Some(Arc::new(hook)),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr);
    client.send(&sweep("t", &["squeezenet"], &["edge"], &["sgd", "adam"]).encode());
    assert!(matches!(client.recv(), Frame::Accepted { cells: 2, .. }));
    let mut records = 0;
    loop {
        match client.recv() {
            Frame::Cell { cell, record, .. } => {
                assert_eq!(record, simulate_cell(&cell).unwrap());
                records += 1;
            }
            Frame::Done { errors, .. } => {
                assert_eq!(errors, 0);
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(records, 2);
    stop(&handle, join);
}

#[test]
fn protocol_shutdown_acknowledges_and_stops_the_server() {
    let (addr, _handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(&addr);

    client.send(&sweep("pre", &["squeezenet"], &["edge"], &["sgd"]).encode());
    loop {
        match client.recv() {
            Frame::Done { errors, .. } => {
                assert_eq!(errors, 0);
                break;
            }
            Frame::Accepted { .. } | Frame::Cell { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }

    client.send("{\"type\":\"shutdown\"}");
    assert_eq!(client.recv(), Frame::ShuttingDown);
    // run() must return on its own once the shutdown request lands.
    join.join().expect("server thread");
}

#[test]
fn loadgen_quick_run_is_clean_against_a_live_daemon() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut opts = LoadOptions::quick(&addr);
    opts.clients = 2;
    opts.requests = 2;
    let report = cq_serve::run_load(&opts);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.completed, 4);
    assert_eq!(report.cell_frames, 4 * 2); // 2 cells per quick sweep
    assert_eq!(report.mismatches, 0);
    stop(&handle, join);
}

#[test]
fn bad_memo_knobs_abort_the_daemon_before_it_listens() {
    let knobs = ["CQ_MAPPING", "CQ_HWCACHE", "CQ_HWCACHE_CAP"];
    for (var, bad) in [
        ("CQ_MAPPING", "serach"),
        ("CQ_HWCACHE", "offf"),
        ("CQ_HWCACHE_CAP", "1e6"),
    ] {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cq_serve"));
        for knob in knobs {
            cmd.env_remove(knob);
        }
        let mut child = cmd
            .env(var, bad)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn cq_serve");
        // A daemon that got past the check would serve forever.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while child.try_wait().expect("poll cq_serve").is_none() {
            if std::time::Instant::now() > deadline {
                child.kill().expect("kill cq_serve");
                child.wait().expect("reap cq_serve");
                panic!("cq_serve kept running with {var}={bad}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("cq_serve output");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var}={bad} exited 0");
        assert!(!stdout.contains("listening"), "{var}={bad}: {stdout}");
        assert!(stderr.contains(var), "{var}={bad}: {stderr}");
    }
}
