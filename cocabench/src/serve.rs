//! The serve workloads: `cocad`'s serve loop (`coca_daemon::serve`)
//! in-process on loopback, driven by the generator in [`crate::gen`].
//!
//! A run sets the server up [`SETUP_REPS`] times, serves one of the
//! set-ups, measures capacity closed-loop and latency open-loop at a
//! fixed offered rate, joins the daemon, recovers the durable
//! workload's storage, and ends with a sequential digest-equivalence
//! pass against a second daemon. The traced run then replays the
//! run's message sequence one op at a time on a fresh in-process core,
//! timing the codec, handler and durability calls.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use coca_core::persist::SNAP_CUR;
use coca_core::{
    CocaConfig, CocaServer, DirStorage, Durability, MergeMode, Snapshot, Storage, WalRecord,
};
use coca_daemon::{
    run_verify, serve, ClientMsg, LockMode, RunSpec, ServerCore, ServerMsg, Workload,
};
use coca_math::Precision;
use coca_model::ModelRuntime;
use coca_sim::SeedTree;

use crate::gen::{run_phase, Conn, Kind, OpRecord, Pool, Schedule};
use crate::report::Outcome;
use crate::stats::{mean, median, percentile, timed};

/// Logical clients the generator multiplexes over its connections.
const CLIENTS: usize = 8;
/// Rounds per client in the pre-generated message pool.
const POOL_ROUNDS: usize = 16;
/// Set-ups per run; set-up figures are their medians.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` given to the closed-loop phase.
const CLOSED_SHARE: f64 = 0.4;
/// Closed-loop ops per second of closed-loop budget. The count is fixed
/// so every run of a workload logs the same number of WAL records.
const CLOSED_OPS_PER_S: f64 = 150.0;
/// The closed loop runs in this many equal batches; capacity is their
/// median rate, so a burst of interference costs one batch, not the run.
const CLOSED_BATCHES: usize = 5;
/// Open-loop offered rate in ops/s, the same on both serve workloads:
/// about half of the durable workload's closed-loop capacity (160–210
/// ops/s on a 2-core host) and under a third of serve-f32's (280–460).
const OPEN_RATE: u64 = 80;
/// Recoveries per durable run, each on its own copy of the storage.
const RECOVER_REPS: usize = 3;
/// Snapshot encode/decode repetitions in the traced run.
const SNAPSHOT_REPS: usize = 3;
/// Logical clients and rounds of the closing digest-equivalence pass.
const VERIFY_CLIENTS: usize = 4;
const VERIFY_ROUNDS: usize = 2;

/// The two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// `cocad`'s defaults: sharded lock, per-upload merge, f32.
    F32,
    /// Single lock, snapshot + WAL on a directory, i8, round-aligned
    /// queue-and-flush.
    DurableI8,
}

impl Serve {
    /// The daemon's world: `cocad`'s defaults (ResNet101 on 30 classes,
    /// world seed 77) whatever the benchmark seed, which draws only the
    /// generator's messages. A different world changes what an allocation
    /// holds several-fold, and so every figure; the benchmark measures one.
    fn spec(self) -> RunSpec {
        let base = RunSpec::default();
        match self {
            Serve::F32 => base,
            Serve::DurableI8 => RunSpec {
                merge_mode: MergeMode::QueueAndFlush,
                round_aligned: true,
                precision: Precision::I8,
                ..base
            },
        }
    }

    fn durable(self) -> bool {
        self == Serve::DurableI8
    }
}

/// The deterministic world a set-up builds.
struct World {
    rt: ModelRuntime,
    cfg: CocaConfig,
    seeds: SeedTree,
}

/// One timed set-up: world, server, and (durable) genesis snapshot.
struct SetUp {
    world: World,
    core: ServerCore,
    world_s: f64,
    server_new_s: f64,
    attach_s: f64,
    total_s: f64,
}

/// Builds the world and the server; with `store`, a single-lock
/// `CocaServer` that writes its genesis snapshot there, else `cocad`'s
/// default sharded core.
fn set_up(spec: RunSpec, store: Option<Box<dyn Storage>>) -> SetUp {
    let t = Instant::now();
    let (rt, cfg, seeds) = spec.build();
    let world_s = t.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (core, server_new_s, attach_s) = match store {
        None => {
            let core = ServerCore::new(&rt, cfg, &seeds, LockMode::Sharded);
            (core, t1.elapsed().as_secs_f64(), 0.0)
        }
        Some(store) => {
            let mut server = CocaServer::new(&rt, cfg, &seeds);
            let server_new_s = t1.elapsed().as_secs_f64();
            let t2 = Instant::now();
            server.attach_storage(store);
            (
                ServerCore::single(server),
                server_new_s,
                t2.elapsed().as_secs_f64(),
            )
        }
    };
    SetUp {
        world: World { rt, cfg, seeds },
        core,
        world_s,
        server_new_s,
        attach_s,
        total_s: t.elapsed().as_secs_f64(),
    }
}

fn dir_storage(dir: &Path) -> Result<Box<dyn Storage>, String> {
    let mut store =
        DirStorage::open(dir).map_err(|e| format!("open storage {}: {e}", dir.display()))?;
    store.set_fsync(false);
    Ok(Box::new(store))
}

/// A per-run scratch directory inside the working directory, removed
/// when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent if other runs still use it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of an iterator's values (0 when empty).
fn median_of(xs: impl Iterator<Item = f64>) -> f64 {
    median(&xs.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Open-loop latencies (ms) of the ops of one kind that succeeded.
fn latencies(ops: &[OpRecord], kind: Kind) -> Vec<f64> {
    ops.iter()
        .filter(|r| r.kind == kind && r.ok())
        .filter_map(|r| r.latency().map(ms))
        .collect()
}

/// Runs one serve workload and fills `out`.
pub fn run(kind: Serve, seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    if let Err(e) = run_inner(kind, seed, seconds, trace, out) {
        out.fail(e);
    }
}

fn run_inner(
    kind: Serve,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = kind.spec();
    let scratch = Scratch::new(if kind.durable() { "durable" } else { "f32" })?;
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());

    // ---- Set-up, several times; the first serves the load, the second
    // the closing verify pass.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let store = if kind.durable() {
            Some(dir_storage(&scratch.dir(&format!("setup{rep}")))?)
        } else {
            None
        };
        setups.push(set_up(spec, store));
    }
    out.set("setup_s", median_of(setups.iter().map(|s| s.total_s)));
    out.set(
        "setup.world_ms",
        1e3 * median_of(setups.iter().map(|s| s.world_s)),
    );
    out.set(
        "setup.server_new_ms",
        1e3 * median_of(setups.iter().map(|s| s.server_new_s)),
    );
    out.set(
        "setup.attach_ms",
        1e3 * median_of(setups.iter().map(|s| s.attach_s)),
    );
    let mut setups = setups.into_iter();
    let main = setups.next().expect("SETUP_REPS >= 2");
    let verify_setup = setups.next().expect("SETUP_REPS >= 2");
    drop(setups);
    let world = main.world;

    // ---- The load.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let handle = serve(main.core, listener, workers).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();
    let load = drive_load(addr, spec, seed, workers, seconds, out);
    handle.shutdown();
    let report = handle.join();
    let (pool, closed, open, capacity) = load?;

    let served = report.requests + report.uploads;
    let sent = closed.iter().chain(&open).filter(|r| r.ok()).count() as u64;
    if closed.iter().chain(&open).all(OpRecord::ok) && served != sent {
        out.fail(format!(
            "daemon served {served} ops, the generator completed {sent}"
        ));
    }

    // ---- End-to-end figures.
    out.set("throughput_per_s", capacity);
    out.set("capacity_ops_s", capacity);
    let req = latencies(&open, Kind::Request);
    let up = latencies(&open, Kind::Upload);
    for (name, xs, q) in [
        ("req_p50_ms", &req, 0.5),
        ("req_p90_ms", &req, 0.9),
        ("upload_p50_ms", &up, 0.5),
        ("upload_p90_ms", &up, 0.9),
    ] {
        match percentile(xs, q) {
            Some(v) => out.set(name, v),
            None => out.fail(format!("{name}: {} samples cannot support it", xs.len())),
        }
    }
    let bytes: usize = closed
        .iter()
        .chain(&open)
        .map(|r| r.sent_bytes + r.recv_bytes)
        .sum();
    let rounds = (closed.len() + open.len()) as f64 / 2.0;
    out.set("wire_kb_per_round", bytes as f64 / 1e3 / rounds);

    // ---- Durable: recover the run's storage, several copies.
    if kind.durable() {
        let mut times = Vec::with_capacity(RECOVER_REPS);
        let mut replayed = 0;
        for rep in 0..RECOVER_REPS {
            let copy = scratch.dir(&format!("recover{rep}"));
            copy_dir(&scratch.dir("setup0"), &copy)?;
            let durability = Durability::new(dir_storage(&copy)?, world.cfg.wal_rotate_records);
            let t = Instant::now();
            let (server, info) =
                CocaServer::recover(&world.rt, world.cfg, &world.seeds, durability)
                    .map_err(|e| format!("recover: {e}"))?;
            times.push(t.elapsed().as_secs_f64());
            replayed = info.replayed;
            if server.global().digest() != report.digest {
                out.fail(format!(
                    "recovered digest {:016x} != daemon final digest {:016x}",
                    server.global().digest(),
                    report.digest
                ));
            }
        }
        let recover_s = median(&times).unwrap_or(0.0);
        out.set("recover_s", recover_s);
        out.set("persist.recover_ms", recover_s * 1e3);
        out.set("persist.replayed_records", replayed as f64);
    }

    // ---- Sequential digest-equivalence pass on a second daemon.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let handle = serve(verify_setup.core, listener, workers).map_err(|e| format!("serve: {e}"))?;
    let verify_wl = Workload {
        spec,
        clients: VERIFY_CLIENTS,
        rounds: VERIFY_ROUNDS,
    };
    let outcome = run_verify(handle.addr(), &verify_wl);
    handle.shutdown();
    handle.join();
    let verify_ops = verify_wl.total_ops();
    match outcome {
        Ok(v) if v.matches() => out.phase("verify", verify_ops, 0),
        Ok(v) => {
            out.phase("verify", verify_ops, 0);
            out.fail(format!(
                "verify: daemon digest {:016x} != reference {:016x}",
                v.daemon_digest, v.local_digest
            ));
        }
        Err(e) => {
            out.phase("verify", verify_ops, verify_ops);
            out.fail(format!("verify: {e}"));
        }
    }

    if trace {
        trace_layers(kind, spec, &pool, &closed, &open, &scratch, out)?;
    }
    Ok(())
}

/// The pool, the closed-loop and open-loop records, and the capacity.
type Load = (Pool, Vec<OpRecord>, Vec<OpRecord>, f64);

/// Connects, handshakes, pre-generates the messages, then runs the
/// closed-loop and open-loop phases.
fn drive_load(
    addr: std::net::SocketAddr,
    spec: RunSpec,
    seed: u64,
    workers: usize,
    seconds: u64,
    out: &mut Outcome,
) -> Result<Load, String> {
    let mut conns = (0..workers)
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut profile = None;
    for c in &mut conns {
        match c.call(&ClientMsg::Hello)? {
            ServerMsg::Profile(p) if profile.as_ref().is_none_or(|q| *q == p) => profile = Some(p),
            ServerMsg::Profile(_) => return Err("connections got different profiles".into()),
            other => return Err(format!("expected Profile, got {other:?}")),
        }
    }
    let profile = profile.ok_or("no connections")?;
    if spec.round_aligned {
        match conns[0].call(&ClientMsg::SetWatermark(CLIENTS))? {
            ServerMsg::WatermarkSet => {}
            other => return Err(format!("expected WatermarkSet, got {other:?}")),
        }
    }
    let wl = Workload {
        spec,
        clients: CLIENTS,
        rounds: POOL_ROUNDS,
    };
    let pool = Pool::new(&wl, &profile, seed);

    let closed_s = seconds as f64 * CLOSED_SHARE;
    // Whole rounds per batch, so both op types get the same count.
    let per_batch = CLOSED_OPS_PER_S * closed_s / CLOSED_BATCHES as f64;
    let n_closed = CLOSED_BATCHES * 2 * (per_batch / 2.0).round().max(1.0) as usize;
    let schedule = Schedule { rate: OPEN_RATE };
    let n_open = schedule.ops_within(Duration::from_secs_f64(seconds as f64 - closed_s)) & !1;

    let mut closed = Vec::with_capacity(n_closed);
    let mut rates = Vec::with_capacity(CLOSED_BATCHES);
    let batch = n_closed / CLOSED_BATCHES;
    for b in 0..CLOSED_BATCHES {
        let t = Instant::now();
        let ops = run_phase(&mut conns, &pool, b * batch, batch, None);
        let ok = ops.iter().filter(|r| r.ok()).count();
        rates.push(ok as f64 / t.elapsed().as_secs_f64());
        closed.extend(ops);
    }
    let open = run_phase(&mut conns, &pool, n_closed, n_open, Some(schedule));
    for (name, ops) in [("closed", &closed), ("open", &open)] {
        let failed = ops.iter().filter(|r| !r.ok()).count();
        out.phase(name, ops.len() as u64, failed as u64);
        if let Some(r) = ops.iter().find(|r| !r.ok()) {
            out.fail(format!(
                "{name} op {}: {}",
                r.index,
                r.error.as_deref().unwrap_or("no reply")
            ));
        }
    }
    out.line(format!(
        "{workers} connections, {CLIENTS} logical clients, closed loop {n_closed} ops, \
         open loop {n_open} ops at {OPEN_RATE} ops/s"
    ));
    Ok((pool, closed, open, median(&rates).unwrap_or(0.0)))
}

/// A [`Storage`] that times and counts the calls the durability layer
/// makes into the directory backend.
struct TimedStorage {
    inner: DirStorage,
    stats: Arc<Mutex<StorageStats>>,
}

#[derive(Debug, Default)]
struct StorageStats {
    append_s: Vec<f64>,
    snapshot_saves: usize,
}

impl Storage for TimedStorage {
    fn load(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.load(key)
    }

    fn save(&mut self, key: &str, bytes: &[u8]) {
        if key == SNAP_CUR {
            self.stats
                .lock()
                .expect("storage stats poisoned")
                .snapshot_saves += 1;
        }
        self.inner.save(key, bytes);
    }

    fn append(&mut self, key: &str, bytes: &[u8]) {
        let ((), dt) = timed(|| self.inner.append(key, bytes));
        self.stats
            .lock()
            .expect("storage stats poisoned")
            .append_s
            .push(dt);
    }

    fn remove(&mut self, key: &str) {
        self.inner.remove(key);
    }

    fn set_fsync(&mut self, enabled: bool) {
        self.inner.set_fsync(enabled);
    }
}

/// Per-call timings gathered by the replay.
#[derive(Default)]
struct Calls {
    decode_request: Vec<f64>,
    decode_upload: Vec<f64>,
    request: Vec<f64>,
    upload: Vec<f64>,
    encode_alloc: Vec<f64>,
    /// Uploads whose handler drained the queue: (time, batch size).
    draining: Vec<(f64, usize)>,
    wal_frame: Vec<f64>,
    wal_bytes: Vec<f64>,
}

impl Calls {
    /// Times `WalRecord::to_frame` on the record the handler would log
    /// (serve-f32's daemon logs nothing; the figure prices its ops).
    fn wal_frame(&mut self, rec: WalRecord) {
        let (frame, dt) = timed(|| rec.to_frame());
        self.wal_frame.push(dt);
        self.wal_bytes.push(frame.len() as f64);
    }
}

fn p50_ms(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0) * 1e3
}

/// The traced half of a serve run: generator-side codec figures from
/// the load, then a one-op-at-a-time replay of the run's message
/// sequence on a fresh in-process core.
fn trace_layers(
    kind: Serve,
    spec: RunSpec,
    pool: &Pool,
    closed: &[OpRecord],
    open: &[OpRecord],
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<(), String> {
    // Generator side: client encode/decode, frame and priced bytes.
    let of = |k: Kind| {
        closed
            .iter()
            .chain(open)
            .filter(move |r| r.kind == k && r.ok())
    };
    let enc = |k: Kind| 1e3 * median_of(of(k).map(|r| r.encode.as_secs_f64()));
    out.set("net.encode_request_ms", enc(Kind::Request));
    out.set("net.encode_upload_ms", enc(Kind::Upload));
    out.set(
        "net.decode_alloc_ms",
        1e3 * median_of(of(Kind::Request).map(|r| r.decode.as_secs_f64())),
    );
    let avg = |xs: Vec<f64>| mean(&xs);
    let req_bytes = avg(of(Kind::Request).map(|r| r.sent_bytes as f64).collect());
    let up_bytes = avg(of(Kind::Upload).map(|r| r.sent_bytes as f64).collect());
    let alloc_bytes = avg(of(Kind::Request).map(|r| r.recv_bytes as f64).collect());
    out.set("net.request_bytes", req_bytes);
    out.set("net.upload_bytes", up_bytes);
    out.set("net.alloc_bytes", alloc_bytes);
    out.set(
        "net.request_sent_over_priced",
        req_bytes / avg(of(Kind::Request).map(|r| r.priced_sent as f64).collect()),
    );
    out.set(
        "net.upload_sent_over_priced",
        up_bytes / avg(of(Kind::Upload).map(|r| r.priced_sent as f64).collect()),
    );
    out.set(
        "net.alloc_sent_over_priced",
        alloc_bytes / avg(of(Kind::Request).map(|r| r.priced_recv as f64).collect()),
    );
    out.set("net.wire_kb_per_round", out.values["wire_kb_per_round"]);
    out.set("daemon.req_p90_ms", out.values["req_p90_ms"]);
    out.set("daemon.upload_p90_ms", out.values["upload_p90_ms"]);
    let lags: Vec<f64> = open.iter().map(|r| ms(r.lag())).collect();
    match percentile(&lags, 0.95) {
        Some(v) => out.set("gen.lag_p95_ms", v),
        None => out.fail(format!(
            "gen.lag_p95_ms: {} samples cannot support it",
            lags.len()
        )),
    }
    // The generator timestamps every op in both runs, so the traced load
    // is the untraced load; what tracing costs is its own clock reads
    // (six per op) against the op's median latency.
    let reads = 100_000;
    let t = Instant::now();
    for _ in 0..reads {
        std::hint::black_box(Instant::now());
    }
    let per_read_ms = ms(t.elapsed()) / reads as f64;
    let op_p50 = median(&latencies(open, Kind::Request)).unwrap_or(f64::NAN);
    out.set("trace.overhead_pct", 100.0 * 6.0 * per_read_ms / op_p50);

    // Replay on a fresh core of the same kind.
    let stats = Arc::new(Mutex::new(StorageStats::default()));
    let store: Option<Box<dyn Storage>> = if kind.durable() {
        let dir = scratch.dir("replay");
        let mut inner =
            DirStorage::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
        inner.set_fsync(false);
        Some(Box::new(TimedStorage {
            inner,
            stats: Arc::clone(&stats),
        }))
    } else {
        None
    };
    let core = set_up(spec, store).core;
    if spec.round_aligned {
        core.set_flush_watermark(CLIENTS);
    }
    // Each phase in the order the generator sent it.
    let mut order = Vec::with_capacity(closed.len() + open.len());
    for phase in [closed, open] {
        let mut ops: Vec<&OpRecord> = phase.iter().filter(|r| r.ok()).collect();
        ops.sort_by_key(|r| r.start);
        order.extend(ops);
    }
    let mut calls = Calls::default();
    for rec in order {
        let frame = coca_net::encode_frame(pool.msg(rec.index).1)
            .map_err(|e| format!("replay encode: {e}"))?;
        let (msg, decode) = timed(|| coca_net::decode_message::<ClientMsg>(&frame));
        match msg.map_err(|e| format!("replay decode: {e}"))? {
            ClientMsg::Request(req) => {
                calls.decode_request.push(decode);
                calls.wal_frame(WalRecord::Request(req.clone()));
                let (alloc, dt) = timed(|| core.handle_request(&req));
                calls.request.push(dt);
                let reply = ServerMsg::Alloc(alloc);
                let (frame, dt) = timed(|| coca_net::encode_frame(&reply));
                frame.map_err(|e| format!("replay encode: {e}"))?;
                calls.encode_alloc.push(dt);
            }
            ClientMsg::Upload(up) => {
                calls.decode_upload.push(decode);
                calls.wal_frame(WalRecord::Upload(up.clone()));
                let before = core.pending_uploads();
                // The daemon's handler reads the queue depth for its ack.
                let (after, dt) = timed(|| {
                    core.handle_upload(up);
                    core.pending_uploads()
                });
                calls.upload.push(dt);
                if spec.merge_mode == MergeMode::QueueAndFlush && after <= before {
                    calls.draining.push((dt, before + 1));
                }
            }
            other => return Err(format!("replayed an unexpected message {other:?}")),
        }
    }

    out.set("persist.wal_frame_ms", 1e3 * mean(&calls.wal_frame));
    out.set("persist.wal_bytes_per_record", mean(&calls.wal_bytes));
    out.set("net.decode_request_ms", p50_ms(&calls.decode_request));
    out.set("net.decode_upload_ms", p50_ms(&calls.decode_upload));
    out.set("net.encode_alloc_ms", p50_ms(&calls.encode_alloc));
    out.set("server.request_ms", p50_ms(&calls.request));
    out.set("server.upload_ms", p50_ms(&calls.upload));
    if spec.merge_mode == MergeMode::QueueAndFlush {
        // The drain runs inside the upload that fills the queue: its
        // cost is that upload's time above a plain enqueue.
        let drains: Vec<f64> = calls.draining.iter().map(|d| d.0).collect();
        let batches: Vec<f64> = calls.draining.iter().map(|d| d.1 as f64).collect();
        out.set("server.flush_ms", p50_ms(&drains) - p50_ms(&calls.upload));
        out.set("server.flush_batch", mean(&batches));
    } else {
        out.skip(
            &["server.flush_"],
            "per-upload merge: every upload merges in its own handler, nothing queues",
        );
    }
    let v = &out.values;
    let req_layers = v["net.encode_request_ms"]
        + v["net.decode_request_ms"]
        + v["server.request_ms"]
        + v["net.encode_alloc_ms"]
        + v["net.decode_alloc_ms"];
    let up_layers = v["net.encode_upload_ms"] + v["net.decode_upload_ms"] + v["server.upload_ms"];
    let (req_p50, up_p50) = (v["req_p50_ms"], v["upload_p50_ms"]);
    out.set("daemon.req_residual_ms", req_p50 - req_layers);
    out.set("daemon.upload_residual_ms", up_p50 - up_layers);

    if kind.durable() {
        let server = core
            .into_server()
            .ok_or("single-lock replay core returned no server")?;
        let s = stats.lock().expect("storage stats poisoned");
        out.set("persist.wal_append_ms", 1e3 * mean(&s.append_s));
        // The first snapshot save is the genesis snapshot.
        out.set(
            "persist.rotations",
            s.snapshot_saves.saturating_sub(1) as f64,
        );
        let snapshot = server.snapshot();
        let mut encode = Vec::new();
        let mut decode = Vec::new();
        let mut bytes = Vec::new();
        for _ in 0..SNAPSHOT_REPS {
            let dt;
            (bytes, dt) = timed(|| snapshot.to_bytes());
            encode.push(dt);
            let (decoded, dt) = timed(|| Snapshot::from_bytes(&bytes));
            decoded.map_err(|e| format!("snapshot decode: {e}"))?;
            decode.push(dt);
        }
        out.set("persist.snapshot_encode_ms", p50_ms(&encode));
        out.set("persist.snapshot_decode_ms", p50_ms(&decode));
        out.set("persist.snapshot_bytes", bytes.len() as f64);
    } else {
        out.skip(
            &["persist.", "setup.attach_ms"],
            "cocad's default serve path attaches no storage",
        );
    }
    out.skip(
        &["client.", "sim.", "driver.", "data."],
        "the serve path runs no client-side inference or simulation",
    );
    Ok(())
}
