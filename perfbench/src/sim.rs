//! The simulator-daemon workloads: `sim_warm` and `sim_cold`.
//!
//! Both run the daemon in process (`cq_serve::Server`, `nproc` workers)
//! under a closed loop of `nproc` client connections: each client sends
//! its next sweep only after the previous one's `done` frame, as a design
//! search loop waiting on its reply does. Set-up simulates the whole
//! 140-cell registry once through `cq_serve::simulate_cell`; those
//! records are the reference every daemon record must equal byte for
//! byte, and computing them fills the memo.
//!
//! * `sim_warm`: every request is all 7 nets × all 5 configs × a seeded
//!   pair of the 4 optimizers (70 cells) in seeded order. The memo stays
//!   warm, so every cell is a hit and the protocol and key building do
//!   the work.
//! * `sim_cold`: every request is all 7 nets × one (config, optimizer)
//!   pair. Every client cycles through all 20 pairs in one seeded order,
//!   client `c` starting `c/nproc` of the way in, so every seed runs the
//!   same mix and two clients rarely ask for the same cell at once. The
//!   memo is off (`cq_sim::set_hwcache_enabled(false)`), so every cell is
//!   simulated and the cycle model does the work. Sweeps cover all 7 nets
//!   so their cost does not depend on which nets the seed drew.

use crate::metrics::{Checks, Report};
use crate::stats::{
    counters, host_factor, median_lat, median_secs, nproc, peak_rss_mib, run_stats, Op, Rng, Slice,
    CAL_REF_US, MIN_OPS, SLICE_S,
};
use crate::{config_header, write_trace, BenchError, RunOptions, Workload};
use cq_accel::{clear_sim_cache, sim_cache_stats, CambriconQ};
use cq_obs::{Event, MemorySink};
use cq_serve::SweepRequest;
use cq_serve::{parse_request, registry, simulate_cell, Cell, Frame, Server, ServerConfig};
use cq_sim::SimResult;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest sweeps in each segment of a traced run.
const MIN_TRACED_OPS: usize = 20;

/// Sweeps per client whose lines the `serve.*` probes replay.
const RECORD_SWEEPS: usize = 8;

/// Benchmark spans kept for the trace file.
const KEEP_SPANS: usize = 256;

/// Largest request a client sends (the `sim_warm` shape).
const MAX_SWEEP_CELLS: usize = 70;

/// The full registry grid in nets × configs × optimizers order.
pub fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for net in registry::NETS {
        for config in registry::CONFIGS {
            for optimizer in registry::OPTIMIZERS {
                cells.push(Cell {
                    net: net.into(),
                    config: config.into(),
                    optimizer: optimizer.into(),
                });
            }
        }
    }
    cells
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// The seeded request stream of one client.
pub struct Plan {
    workload: Workload,
    rng: Rng,
    /// `sim_cold`: the (config, optimizer) pairs in seeded order.
    pairs: Vec<(&'static str, &'static str)>,
    /// This client's starting point in `pairs`.
    offset: usize,
    sent: usize,
    client: usize,
}

impl Plan {
    /// The plan of client `client` of `clients` for `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize, clients: usize) -> Plan {
        let mut pairs = Vec::new();
        for config in registry::CONFIGS {
            for optimizer in registry::OPTIMIZERS {
                pairs.push((config, optimizer));
            }
        }
        Rng::new(seed).shuffle(&mut pairs);
        Plan {
            workload,
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            offset: client * pairs.len() / clients,
            pairs,
            sent: 0,
            client,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> SweepRequest {
        let mut nets = strings(&registry::NETS);
        self.rng.shuffle(&mut nets);
        let (configs, optimizers) = match self.workload {
            Workload::SimCold => {
                let (c, o) = self.pairs[(self.offset + self.sent) % self.pairs.len()];
                (vec![c.to_string()], vec![o.to_string()])
            }
            _ => {
                let mut configs = strings(&registry::CONFIGS);
                self.rng.shuffle(&mut configs);
                let mut optimizers = strings(&registry::OPTIMIZERS);
                self.rng.shuffle(&mut optimizers);
                optimizers.truncate(2);
                (configs, optimizers)
            }
        };
        self.sent += 1;
        SweepRequest {
            id: format!("c{}-r{}", self.client, self.sent),
            nets,
            configs,
            optimizers,
        }
    }
}

/// Checks one daemon record against the set-up reference.
pub fn check_record(
    reference: &HashMap<Cell, String>,
    cell: &Cell,
    record: &str,
) -> Result<(), String> {
    match reference.get(cell) {
        Some(want) if want == record => Ok(()),
        Some(_) => Err(format!("{cell}: record differs from the reference")),
        None => Err(format!("{cell}: not a registry cell")),
    }
}

/// What one client saw in one segment.
#[derive(Default)]
struct ClientOut {
    ops: Vec<Op>,
    cells_ok: u64,
    checks: Checks,
    request_lines: Vec<String>,
    frame_lines: Vec<String>,
    done_coalesced: u64,
    queue_peak: u64,
}

/// Sends one sweep and reads its frames up to the terminating one.
/// Returns the frames, or `Err` when the connection broke.
fn exchange(
    line: &str,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    raw: Option<&mut Vec<String>>,
) -> Result<Vec<Frame>, String> {
    writeln!(writer, "{line}").map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;
    let mut frames = Vec::new();
    let mut raw = raw;
    loop {
        let mut buf = String::new();
        match reader.read_line(&mut buf) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        let frame = Frame::parse(buf.trim_end())?;
        if let Some(r) = raw.as_deref_mut() {
            r.push(buf.trim_end().to_string());
        }
        let last = !matches!(
            frame,
            Frame::Accepted { .. } | Frame::Cell { .. } | Frame::CellError { .. }
        );
        frames.push(frame);
        if last {
            return Ok(frames);
        }
    }
}

/// One closed-loop client: sweeps in slices, checking in at the
/// [`Gate`] after each, until the gate says stop. Leaves the gate on
/// every return.
fn client(
    addr: SocketAddr,
    plan: &mut Plan,
    reference: &HashMap<Cell, String>,
    record: bool,
    gate: &Gate,
) -> ClientOut {
    let out = client_loop(addr, plan, reference, record, gate);
    gate.leave();
    out
}

fn client_loop(
    addr: SocketAddr,
    plan: &mut Plan,
    reference: &HashMap<Cell, String>,
    record: bool,
    gate: &Gate,
) -> ClientOut {
    let mut out = ClientOut::default();
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        Ok((BufReader::new(s.try_clone()?), BufWriter::new(s)))
    });
    let (mut reader, mut writer) = match connected {
        Ok(rw) => rw,
        Err(e) => {
            out.checks
                .check(false, || format!("client could not connect: {e}"));
            return out;
        }
    };
    let mut sweeps = 0;
    let (mut slice, mut slice_start) = (0, Instant::now());
    loop {
        let req = plan.next_request();
        let line = req.encode();
        let expected = req.cells();
        out.checks.attempted += expected.len() as u64;
        let keep = record && sweeps < RECORD_SWEEPS;
        if keep {
            out.request_lines.push(line.clone());
        }
        let t = Instant::now();
        let frames = {
            let mut sp = cq_obs::span!("bench", "sweep");
            sp.arg("op", req.id.as_str()).arg("cells", expected.len());
            exchange(
                &line,
                &mut reader,
                &mut writer,
                keep.then_some(&mut out.frame_lines),
            )
        };
        let lat = t.elapsed().as_secs_f64() * 1e3;
        sweeps += 1;
        let frames = match frames {
            Ok(f) => f,
            Err(e) => {
                out.checks.failed += expected.len() as u64;
                out.checks.errors.push(format!("{}: {e}", req.id));
                return out;
            }
        };
        let mut seen: HashMap<&Cell, usize> = HashMap::new();
        let mut bad = 0u64;
        let mut done = false;
        for frame in &frames {
            match frame {
                Frame::Accepted { .. } => {}
                Frame::Cell { cell, record, .. } => {
                    *seen.entry(cell).or_default() += 1;
                    if let Err(e) = check_record(reference, cell, record) {
                        bad += 1;
                        out.checks.errors.push(format!("{}: {e}", req.id));
                    }
                }
                Frame::CellError { cell, error, .. } => {
                    *seen.entry(cell).or_default() += 1;
                    bad += 1;
                    out.checks
                        .errors
                        .push(format!("{}: cell_error {cell}: {error}", req.id));
                }
                Frame::Done { counters, .. } => {
                    done = true;
                    for (name, v) in counters {
                        match name.as_str() {
                            "serve.coalesced" => out.done_coalesced = out.done_coalesced.max(*v),
                            "serve.queue_peak" => out.queue_peak = out.queue_peak.max(*v),
                            _ => {}
                        }
                    }
                }
                other => {
                    out.checks
                        .errors
                        .push(format!("{}: refused: {}", req.id, other.encode()));
                }
            }
        }
        // Every expected cell exactly once, and nothing else.
        let missing = expected.iter().filter(|c| seen.get(c) != Some(&1)).count() as u64;
        let extra = frames
            .iter()
            .filter(|f| matches!(f, Frame::Cell { cell, .. } | Frame::CellError { cell, .. } if !expected.contains(cell)))
            .count() as u64;
        let failed = if done {
            (bad + missing + extra).min(expected.len() as u64)
        } else {
            expected.len() as u64
        };
        if done && missing + extra > 0 {
            out.checks.errors.push(format!(
                "{}: {missing} cells missing or repeated, {extra} unexpected",
                req.id
            ));
        }
        out.checks.failed += failed;
        out.cells_ok += expected.len() as u64 - failed;
        if done {
            out.ops.push(Op {
                lat_ms: lat,
                items: (expected.len() as u64 - failed) as f64,
                slice,
            });
        }
        if gate.sweep_done(slice_start) {
            if gate.check_in() {
                return out;
            }
            slice += 1;
            slice_start = Instant::now();
        }
    }
}

/// Pauses the closed loop between slices. A client checks in at the end
/// of each slice and waits; the driving thread waits until every client
/// still connected has checked in, samples the host speed while the
/// daemon is idle, and releases them or tells them to stop.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    start: Instant,
    secs: f64,
    min_ops: usize,
    ops: AtomicUsize,
}

#[derive(Default)]
struct GateState {
    /// Clients checked in this slice.
    waiting: usize,
    /// Clients that returned (stopped, or their connection broke).
    gone: usize,
    /// Bumped on every release.
    generation: u64,
    stop: bool,
    /// Latest check-in of the slice, seconds since `start`.
    last_s: f64,
}

impl Gate {
    fn new(secs: f64, min_ops: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            start: Instant::now(),
            secs,
            min_ops,
            ops: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts a finished sweep; true when the client's slice is over,
    /// either by length or because the whole segment is.
    fn sweep_done(&self, slice_start: Instant) -> bool {
        let total = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        slice_start.elapsed().as_secs_f64() >= SLICE_S || self.segment_over(total)
    }

    fn segment_over(&self, total_ops: usize) -> bool {
        self.start.elapsed().as_secs_f64() >= self.secs && total_ops >= self.min_ops
    }

    /// Ends the client's slice and waits for the release; true: stop.
    fn check_in(&self) -> bool {
        let mut st = self.lock();
        st.waiting += 1;
        st.last_s = st.last_s.max(self.start.elapsed().as_secs_f64());
        self.cv.notify_all();
        let generation = st.generation;
        while st.generation == generation {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.stop
    }

    fn leave(&self) {
        self.lock().gone += 1;
        self.cv.notify_all();
    }

    /// Drives `clients` clients through their slices, calling `poll`
    /// every 20 ms while a slice runs. Returns the slices.
    fn drive(&self, clients: usize, mut poll: impl FnMut()) -> Vec<Slice> {
        let mut slices = Vec::new();
        let mut slice_start_s = 0.0;
        loop {
            let mut st = self.lock();
            while st.waiting + st.gone < clients {
                st = self
                    .cv
                    .wait_timeout(st, Duration::from_millis(20))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                drop(st);
                poll();
                st = self.lock();
            }
            let (waiting, last_s) = (st.waiting, st.last_s);
            drop(st);
            if waiting > 0 {
                slices.push(Slice {
                    wall_s: (last_s - slice_start_s).max(f64::MIN_POSITIVE),
                    host: host_factor(),
                });
            }
            let stop = waiting == 0 || self.segment_over(self.ops.load(Ordering::Relaxed));
            let mut st = self.lock();
            st.waiting = 0;
            st.stop = stop;
            st.generation += 1;
            slice_start_s = self.start.elapsed().as_secs_f64();
            drop(st);
            self.cv.notify_all();
            if stop {
                return slices;
            }
        }
    }
}

/// The aggregate of one closed-loop segment.
#[derive(Default)]
struct Segment {
    ops: Vec<Op>,
    slices: Vec<Slice>,
    cells_ok: u64,
    wall_s: f64,
    request_lines: Vec<String>,
    frame_lines: Vec<String>,
    done_coalesced: u64,
    queue_peak: u64,
}

/// Runs all clients for one segment of at least `secs` and `min_ops`
/// sweeps, in slices. With a sink, the calling thread drains it while
/// the clients run, keeping the benchmark spans.
#[allow(clippy::too_many_arguments)]
fn segment(
    addr: SocketAddr,
    plans: &mut [Plan],
    reference: &HashMap<Cell, String>,
    secs: f64,
    min_ops: usize,
    sink: Option<&MemorySink>,
    kept: &mut Vec<Event>,
    checks: &mut Checks,
) -> Segment {
    let gate = Gate::new(secs, min_ops);
    let record = sink.is_some();
    let clients = plans.len();
    let (outs, slices): (Vec<ClientOut>, Vec<Slice>) = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter_mut()
            .map(|plan| {
                let gate = &gate;
                s.spawn(move || client(addr, plan, reference, record, gate))
            })
            .collect();
        let slices = gate.drive(clients, || {
            if let Some(sink) = sink {
                keep_bench_spans(sink.take(), kept);
            }
        });
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        if let Some(sink) = sink {
            keep_bench_spans(sink.take(), kept);
        }
        (outs, slices)
    });
    let mut seg = Segment {
        wall_s: gate.start.elapsed().as_secs_f64(),
        slices,
        ..Segment::default()
    };
    for out in outs {
        seg.ops.extend(out.ops);
        seg.cells_ok += out.cells_ok;
        seg.request_lines.extend(out.request_lines);
        seg.frame_lines.extend(out.frame_lines);
        seg.done_coalesced = seg.done_coalesced.max(out.done_coalesced);
        seg.queue_peak = seg.queue_peak.max(out.queue_peak);
        checks.attempted += out.checks.attempted;
        checks.failed += out.checks.failed;
        checks.errors.extend(out.checks.errors);
    }
    seg
}

fn keep_bench_spans(events: Vec<Event>, kept: &mut Vec<Event>) {
    for ev in events {
        if ev.cat == "bench" && kept.len() < KEEP_SPANS {
            kept.push(ev);
        }
    }
}

/// Everything set-up builds: the reference records and a bound daemon.
struct Setup {
    reference: HashMap<Cell, String>,
    server: Server,
}

fn set_up(cells: &[Cell], clients: usize) -> Result<Setup, BenchError> {
    cq_sim::set_hwcache_enabled(true);
    clear_sim_cache();
    let pool = cq_par::Pool::new(nproc());
    let records = pool.parallel_map(cells.len(), |i| simulate_cell(&cells[i]));
    let mut reference = HashMap::with_capacity(cells.len());
    for (cell, record) in cells.iter().zip(records) {
        let record = record.map_err(BenchError::Setup)?;
        reference.insert(cell.clone(), record);
    }
    let cfg = ServerConfig {
        workers: nproc(),
        // Room for every client's largest sweep: the closed loop is never
        // refused, so a rejection is a failure, not load shedding.
        queue_cap: clients * MAX_SWEEP_CELLS,
        ..ServerConfig::default()
    };
    let server =
        Server::bind("127.0.0.1:0", cfg).map_err(|e| BenchError::Setup(format!("bind: {e}")))?;
    Ok(Setup { reference, server })
}

/// Mean seconds per call of `f` over `items`, repeated until at least
/// `min_calls` calls ran.
fn mean_call_s<T>(items: &[T], min_calls: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut calls = 0;
    let t = Instant::now();
    while calls < min_calls {
        for item in items {
            f(item);
        }
        calls += items.len();
    }
    t.elapsed().as_secs_f64() / calls as f64
}

fn cell_key(cell: &Cell) -> cq_sim::HwCostKey {
    let net = registry::net(&cell.net).expect("registry cell");
    let config = registry::config(&cell.config).expect("registry cell");
    let optimizer = registry::optimizer(&cell.optimizer).expect("registry cell");
    CambriconQ::new(config).cache_key(&net, optimizer)
}

/// Times the public calls of the serve and accel layers on the cells
/// and lines the traced segment itself sent and received.
fn probes(
    seg: &Segment,
    reference: &HashMap<Cell, String>,
    checks: &mut Checks,
    measured: &mut BTreeMap<&'static str, f64>,
) {
    let requests = &seg.request_lines;
    measured.insert(
        "serve.parse_us",
        1e6 * mean_call_s(requests, 2000, |l| {
            black_box(parse_request(black_box(l)).expect("own request parses"));
        }),
    );
    measured.insert(
        "serve.frame_parse_us",
        1e6 * mean_call_s(&seg.frame_lines, 20000, |l| {
            black_box(Frame::parse(black_box(l)).expect("received frame parses"));
        }),
    );
    let frames: Vec<Frame> = seg
        .frame_lines
        .iter()
        .map(|l| Frame::parse(l).expect("received frame parses"))
        .collect();
    measured.insert(
        "serve.frame_encode_us",
        1e6 * mean_call_s(&frames, 20000, |f| {
            black_box(black_box(f).encode());
        }),
    );
    let mut cells: Vec<Cell> = Vec::new();
    for line in requests {
        if let Ok(cq_serve::Request::Sweep(req)) = parse_request(line) {
            for cell in req.cells() {
                if !cells.contains(&cell) {
                    cells.push(cell);
                }
            }
        }
    }
    measured.insert(
        "accel.cache_key_us",
        1e6 * mean_call_s(&cells, 2000, |c| {
            black_box(cell_key(black_box(c)));
        }),
    );
    // A fixed sample, every net under every config, so the simulate
    // probes and the host time per simulated cycle compare across seeds.
    let sample: Vec<Cell> = grid()
        .into_iter()
        .filter(|c| c.optimizer == "adam")
        .collect();
    for c in &sample {
        let _ = simulate_cell(c);
    }
    measured.insert(
        "accel.simulate_hit_us",
        1e6 * mean_call_s(&sample, 2000, |c| {
            black_box(simulate_cell(black_box(c)).expect("registry cell"));
        }),
    );
    let (mut miss_s, mut cycles) = (0.0, 0u64);
    for c in &sample {
        clear_sim_cache();
        let t = Instant::now();
        let record = simulate_cell(c).expect("registry cell");
        miss_s += t.elapsed().as_secs_f64();
        let result = check_record(reference, c, &record);
        checks.check(result.is_ok(), || result.clone().unwrap_err());
        cycles += SimResult::from_record(&record).map_or(0, |r| r.total_cycles());
    }
    measured.insert("accel.simulate_miss_ms", 1e3 * miss_s / sample.len() as f64);
    if cycles > 0 {
        measured.insert(
            "sim.host_us_per_mcycle",
            1e6 * miss_s / (cycles as f64 / 1e6),
        );
    }
    // The DDR model counts only while a sink is installed: repeat the
    // misses traced, untimed. The sample is fixed and the simulator
    // deterministic, so these counts repeat exactly.
    let sink = Arc::new(MemorySink::new());
    cq_obs::install(sink.clone());
    let c0 = counters();
    for c in &sample {
        clear_sim_cache();
        let _ = simulate_cell(c);
        sink.take();
    }
    cq_obs::uninstall();
    let c1 = counters();
    let delta = |name: &str| {
        (c1.get(name).copied().unwrap_or(0) - c0.get(name).copied().unwrap_or(0)) as f64
    };
    measured.insert(
        "mem.transactions_per_cell",
        delta("mem.transactions") / sample.len() as f64,
    );
    let rows = delta("mem.row_hits") + delta("mem.row_misses");
    if rows > 0.0 {
        measured.insert("mem.row_hit_ratio", delta("mem.row_hits") / rows);
    }
}

/// Runs a simulation workload.
pub fn run(opts: &RunOptions) -> Result<Report, BenchError> {
    let cold = opts.workload == Workload::SimCold;
    let clients = nproc();
    let cells = grid();
    let (setup_s, setup) = median_secs(SETUP_REPS, || set_up(&cells, clients));
    let Setup { reference, server } = setup?;
    cq_sim::set_hwcache_enabled(!cold);
    let header = config_header(opts, "n/a");
    let memo_start = sim_cache_stats();
    let addr = server
        .local_addr()
        .map_err(|e| BenchError::Setup(format!("local_addr: {e}")))?;
    let mut plans: Vec<Plan> = (0..clients)
        .map(|c| Plan::new(opts.workload, opts.seed, c, clients))
        .collect();
    let stop: Arc<AtomicBool> = server.shutdown_handle();
    let mut checks = Checks::default();
    let mut measured = BTreeMap::new();
    let mut notes = Vec::new();
    let mut kept = Vec::new();
    let served = std::thread::scope(|s| {
        let daemon = s.spawn(|| server.run());
        let result = if !opts.trace {
            let seg = segment(
                addr,
                &mut plans,
                &reference,
                opts.seconds,
                MIN_OPS,
                None,
                &mut kept,
                &mut checks,
            );
            if let Some(st) = run_stats(&seg.ops, &seg.slices) {
                measured.insert("setup_s", setup_s);
                measured.insert("items_per_ref_s", st.items_per_ref_s);
                measured.insert("op_ref_ms_p50", st.p50_ref_ms);
                measured.insert("op_ref_ms_p90", st.p90_ref_ms);
                notes.push(format!(
                    "ops measured: {} sweeps ({} cells) from {clients} closed-loop clients in \
                     {:.3} s, {} slices ({} beyond p90)",
                    st.ops,
                    seg.cells_ok,
                    seg.wall_s,
                    seg.slices.len(),
                    st.beyond_p90
                ));
                notes.push(st.wall_clock_note());
            }
            None
        } else {
            let plain = segment(
                addr,
                &mut plans,
                &reference,
                opts.seconds / 4.0,
                MIN_TRACED_OPS,
                None,
                &mut kept,
                &mut checks,
            );
            let sink = Arc::new(MemorySink::new());
            cq_obs::install(sink.clone());
            let memo0 = sim_cache_stats();
            let seg = segment(
                addr,
                &mut plans,
                &reference,
                opts.seconds * 3.0 / 4.0,
                MIN_TRACED_OPS,
                Some(&sink),
                &mut kept,
                &mut checks,
            );
            cq_obs::uninstall();
            let memo1 = sim_cache_stats();
            Some((plain, seg, memo0, memo1))
        };
        stop.store(true, Ordering::SeqCst);
        let served = daemon.join().expect("daemon thread panicked");
        served.map(|()| result)
    });
    let traced = served.map_err(|e| BenchError::Setup(format!("daemon: {e}")))?;
    // The premise of each workload: every cell a memo hit, or none.
    let memo_end = sim_cache_stats();
    let (hits, misses) = (
        memo_end.hits - memo_start.hits,
        memo_end.misses - memo_start.misses,
    );
    if cold {
        checks.check(hits + misses == 0, || {
            format!("sim_cold used the memo: {hits} hits, {misses} misses")
        });
    } else {
        checks.check(misses == 0 && hits > 0, || {
            format!("sim_warm missed the memo: {hits} hits, {misses} misses")
        });
    }
    cq_sim::set_hwcache_enabled(true);
    let Some((plain, seg, memo0, memo1)) = traced else {
        measured.insert("peak_rss_mb", peak_rss_mib());
        if measured.len() < crate::END_TO_END.len() {
            return Err(BenchError::Setup("no sweep completed".into()));
        }
        return Ok(Report::new(header, false, &measured, &checks, notes));
    };
    if seg.ops.is_empty() || plain.ops.is_empty() {
        return Err(BenchError::Setup("no sweep completed".into()));
    }
    let sweeps = seg.ops.len() as f64;
    measured.insert("ops_traced", sweeps);
    // Every cell the daemon served that was not coalesced onto another
    // in-flight cell made one simulate call.
    let coalesced = seg.done_coalesced.saturating_sub(plain.done_coalesced);
    let calls = seg.cells_ok.saturating_sub(coalesced);
    if calls > 0 {
        measured.insert(
            "sim.hwcost.hit_ratio",
            (memo1.hits - memo0.hits) as f64 / calls as f64,
        );
    }
    measured.insert("serve.coalesced_per_sweep", coalesced as f64 / sweeps);
    measured.insert(
        "serve.queue_peak",
        seg.queue_peak.max(plain.queue_peak) as f64,
    );
    measured.insert(
        "obs.overhead_ratio",
        median_lat(&seg.ops) / median_lat(&plain.ops),
    );
    measured.insert("host.cal_us", host_factor() * CAL_REF_US);
    let (mut sim_ms, mut sim_mj) = (0.0, 0.0);
    for cell in &cells {
        let result = SimResult::from_record(&reference[cell]);
        checks.check(result.is_some(), || {
            format!("{cell}: reference record does not decode")
        });
        if let Some(r) = result {
            sim_ms += r.time_ms();
            sim_mj += r.total_energy_mj();
        }
    }
    measured.insert("sim.simulated_ms_total", sim_ms);
    measured.insert("sim.simulated_energy_mj_total", sim_mj);
    probes(&seg, &reference, &mut checks, &mut measured);
    measured.insert("failed_share", checks.failed_share());
    notes.push(format!(
        "sweeps: {} untraced then {} traced from {clients} closed-loop clients",
        plain.ops.len(),
        seg.ops.len()
    ));
    let report = Report::new(header, true, &measured, &checks, notes);
    if let Some(path) = &opts.trace_out {
        write_trace(path, &report, &kept)?;
    }
    Ok(report)
}
