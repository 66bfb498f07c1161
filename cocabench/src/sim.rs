//! The sim-churn workload: a churn-shaped `ScenarioSpec` (leaves, staggered
//! joins, a degraded link, popularity drift) through the virtual-time
//! engine's `Engine::run_plan`.
//!
//! The traced run drives the same plan through [`TracedDriver`], the
//! benchmark's own `MethodDriver`, which makes the same public
//! `CocaClient` and `CocaServer` calls as the engine's private driver with
//! a timer around each, and must reproduce the untraced report exactly.

use std::time::Instant;

use coca_core::driver::{FrameOutcome, FrameStep, NoMsg};
use coca_core::engine::{Scenario, ScenarioConfig};
use coca_core::proto::{CacheAllocation, CacheRequest, UpdateUpload};
use coca_core::spec::{PopularityShift, ScenarioSpec};
use coca_core::{
    drive_plan, CocaClient, CocaConfig, CocaServer, DrivePlan, Engine, EngineConfig, EngineReport,
    LocalCache, LookupScratch, MethodDriver, WalRecord,
};
use coca_daemon::{ClientMsg, ServerMsg};
use coca_data::distribution::long_tail_weights;
use coca_data::{DatasetSpec, Frame};
use coca_model::{ModelId, ModelRuntime};
use coca_net::{LinkModel, WireSize};
use coca_sim::SimDuration;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::report::Outcome;
use crate::stats::{mean, median, timed};

const MODEL: ModelId = ModelId::ResNet101;
/// Worlds per second of `--seconds` (one takes ~0.6 s with its set-up
/// on a 2-core host). Frames per second differ by ±20% between worlds —
/// they follow the hit ratio — so a run reports the median over many.
const REPS_PER_SECOND: f64 = 1.5;
/// Worlds per run, at least and at most.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 60;
/// Rounds and frames per round of each base client.
const ROUNDS: usize = 6;
const FRAMES: usize = 100;

/// `results/specs/churn.json`'s timeline on shorter rounds, plus drift:
/// 6 base clients on a 50-class long tail, clients 1 and 4 leave after
/// rounds 2 and 3, three clients join while the base fleet still runs
/// (the last on a congested link), the popularity head rotates twice and
/// client 0 re-draws its own.
fn spec(seed: u64, rounds: usize, frames_per_round: usize) -> ScenarioSpec {
    let mut sc = ScenarioConfig::new(MODEL, DatasetSpec::ucf101().subset(50));
    sc.num_clients = 6;
    sc.seed = seed;
    sc.global_popularity = long_tail_weights(50, 90.0);
    let congested = LinkModel {
        one_way_delay: SimDuration::from_millis(15),
        bandwidth_bps: 10.0e6,
    };
    let frames = (rounds * frames_per_round) as u64;
    ScenarioSpec::new(sc, rounds, frames_per_round)
        .leave(1, 2)
        .leave(4, 3)
        .join(4_000.0, 4)
        .join(8_000.0, 3)
        .join(12_000.0, 3)
        .link_change(Some(8), 12_000.0, congested)
        .popularity_shift(None, frames / 3, PopularityShift::Rotate(17))
        .popularity_shift(None, 2 * frames / 3, PopularityShift::Rotate(17))
        .popularity_shift(Some(0), frames / 2, PopularityShift::Permute(7))
}

/// Repetition `j` of a run simulates its own world, seeded from the run's
/// seed: a run's figures are medians over several worlds, not one.
fn rep_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(100).wrapping_add(j as u64)
}

fn coca_config(spec: &ScenarioSpec) -> CocaConfig {
    let mut coca = CocaConfig::for_model(MODEL);
    coca.round_frames = spec.frames_per_round;
    coca
}

/// Materializes the spec; one summary for the whole fleet, so upload
/// sojourns land in one quantile sketch.
fn materialize(spec: &ScenarioSpec) -> (Scenario, DrivePlan) {
    let (scenario, mut plan) = spec.materialize();
    plan.metrics.per_client = false;
    (scenario, plan)
}

/// The report fields the traced run must reproduce, plus the table digest.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    frames: u64,
    frame_digest: u64,
    mean_latency_ms: u64,
    hit_ratio: u64,
    accuracy_pct: u64,
    table_digest: u64,
}

fn fingerprint(r: &EngineReport, table_digest: u64) -> Fingerprint {
    Fingerprint {
        frames: r.frames,
        frame_digest: r.frame_digest,
        mean_latency_ms: r.mean_latency_ms.to_bits(),
        hit_ratio: r.hit_ratio.to_bits(),
        accuracy_pct: r.accuracy_pct.to_bits(),
        table_digest,
    }
}

/// One untraced repetition.
struct Rep {
    setup_s: f64,
    run_s: f64,
    report: EngineReport,
    fp: Fingerprint,
    /// Frames the plan holds.
    planned: u64,
    /// Edge-only latency: one full inference.
    full_ms: f64,
}

fn untraced(spec: &ScenarioSpec) -> Rep {
    let t = Instant::now();
    let (scenario, plan) = materialize(spec);
    let mut engine = Engine::new(scenario, EngineConfig::new(coca_config(spec)));
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = engine.run_plan(&plan);
    let run_s = t.elapsed().as_secs_f64();
    let fp = fingerprint(&report, engine.server().global().digest());
    Rep {
        setup_s,
        run_s,
        report,
        fp,
        planned: plan.total_frames(),
        full_ms: engine.scenario().rt.full_compute().as_millis_f64(),
    }
}

/// The paper's outcome a CoCa run must show: every planned frame ran,
/// and collaborative caching beat full inference on average.
fn check(rep: &Rep, j: usize, out: &mut Outcome) -> bool {
    let r = &rep.report;
    let mut ok = true;
    if r.frames != rep.planned {
        out.fail(format!(
            "rep {j}: engine ran {} frames, the plan holds {}",
            r.frames, rep.planned
        ));
        ok = false;
    }
    if !(r.hit_ratio > 0.0 && r.hit_ratio <= 1.0 && r.mean_latency_ms < rep.full_ms) {
        out.fail(format!(
            "rep {j}: hit ratio {} and mean latency {} ms do not beat edge-only {} ms",
            r.hit_ratio, r.mean_latency_ms, rep.full_ms
        ));
        ok = false;
    }
    ok
}

/// Runs sim-churn and fills `out`.
pub fn run(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    // A fixed count, not "until time is up": the virtual-clock figures
    // are medians over the worlds, and must repeat exactly per seed.
    let count = ((seconds as f64 * REPS_PER_SECOND).round() as usize).clamp(MIN_REPS, MAX_REPS);
    let mut reps: Vec<Rep> = Vec::with_capacity(count);
    for j in 0..count {
        let rep = untraced(&spec(rep_seed(seed, j), ROUNDS, FRAMES));
        let ok = check(&rep, j, out);
        out.phase(
            &format!("rep{j}"),
            rep.report.frames,
            if ok { 0 } else { rep.report.frames },
        );
        reps.push(rep);
    }
    let med = |f: &dyn Fn(&Rep) -> Option<f64>| -> Option<f64> {
        let xs: Option<Vec<f64>> = reps.iter().map(f).collect();
        median(&xs?)
    };
    out.set("setup_s", med(&|r| Some(r.setup_s)).unwrap_or(0.0));
    let rate = med(&|r| Some(r.report.frames as f64 / r.run_s)).unwrap_or(0.0);
    out.set("throughput_per_s", rate);
    out.set("sim_frames_per_s", rate);
    match med(&|r| r.report.response_latency.p50_ms()) {
        Some(v) => out.set("req_p50_ms", v),
        None => out.fail("no cache-request response latency recorded"),
    }
    match med(&|r| r.report.per_client.first().and_then(|s| s.upload.p50_ms())) {
        Some(v) => out.set("upload_p50_ms", v),
        None => out.fail("no upload sojourn recorded"),
    }
    out.set(
        "sim_latency_ms",
        med(&|r| Some(r.report.mean_latency_ms)).unwrap_or(0.0),
    );
    out.set(
        "sim_hit_ratio",
        med(&|r| Some(r.report.hit_ratio)).unwrap_or(0.0),
    );
    out.set(
        "sim_accuracy_pct",
        med(&|r| Some(r.report.accuracy_pct)).unwrap_or(0.0),
    );
    out.line(format!(
        "{} repetitions of ~{} frames, one world each; req/upload latencies are the engine's \
         virtual clock",
        reps.len(),
        reps[0].report.frames
    ));

    // Rep 0 again, untraced or through the traced driver: it must land
    // on exactly the same report and table.
    let first = spec(rep_seed(seed, 0), ROUNDS, FRAMES);
    if trace {
        traced(&first, &reps[0].fp, out);
    } else {
        let again = untraced(&first);
        rerun_check("rerun", again.report.frames, &again.fp, &reps[0].fp, out);
    }
}

/// Counts a re-run of rep 0 as a phase; it fails unless it reproduced
/// rep 0 exactly.
fn rerun_check(name: &str, frames: u64, got: &Fingerprint, want: &Fingerprint, out: &mut Outcome) {
    let same = got == want;
    out.phase(name, frames, if same { 0 } else { frames });
    if !same {
        out.fail(format!("{name} diverged: {got:?} vs {want:?}"));
    }
}

/// Per-call timings the traced driver gathers.
#[derive(Debug, Default)]
struct Timings {
    request: Vec<f64>,
    upload: Vec<f64>,
    install: Vec<f64>,
    frame: Vec<f64>,
    end_round: Vec<f64>,
    hits: u64,
    /// Every message the engine passed, for the codec probe.
    msgs: Messages,
}

#[derive(Debug, Default)]
struct Messages {
    requests: Vec<CacheRequest>,
    allocs: Vec<CacheAllocation>,
    uploads: Vec<UpdateUpload>,
}

/// Codec figures for one message type.
#[derive(Default)]
struct Codec {
    encode: Vec<f64>,
    decode: Vec<f64>,
    bytes: Vec<f64>,
    priced: Vec<f64>,
}

impl Codec {
    /// Frames `msg` with the daemon's codec and decodes it back.
    fn probe<T: Serialize + DeserializeOwned>(
        &mut self,
        msg: &T,
        priced: usize,
    ) -> Result<(), String> {
        let (frame, dt) = timed(|| coca_net::encode_frame(msg));
        let frame = frame.map_err(|e| format!("encode: {e}"))?;
        self.encode.push(dt);
        let (back, dt) = timed(|| coca_net::decode_message::<T>(&frame));
        back.map_err(|e| format!("decode: {e}"))?;
        self.decode.push(dt);
        self.bytes.push(frame.len() as f64);
        self.priced.push(priced as f64);
        Ok(())
    }

    fn set(&self, out: &mut Outcome, name: &str, encode: &str, decode: &str) {
        out.set(encode, median(&self.encode).unwrap_or(0.0) * 1e3);
        out.set(decode, median(&self.decode).unwrap_or(0.0) * 1e3);
        out.set(&format!("net.{name}_bytes"), mean(&self.bytes));
        out.set(
            &format!("net.{name}_sent_over_priced"),
            mean(&self.bytes) / mean(&self.priced),
        );
    }
}

/// Times the daemon's wire codec and the WAL framing on the messages the
/// engine passed in memory: what this workload's traffic costs in those
/// layers, which `throughput_per_s` here never pays.
fn codec_probe(m: &Messages, out: &mut Outcome) -> Result<(), String> {
    let (mut req, mut alloc, mut up) = (Codec::default(), Codec::default(), Codec::default());
    let (mut wal_s, mut wal_bytes) = (Vec::new(), Vec::new());
    let mut wal = |rec: WalRecord| {
        let (frame, dt) = timed(|| rec.to_frame());
        wal_s.push(dt);
        wal_bytes.push(frame.len() as f64);
    };
    for r in &m.requests {
        req.probe(&ClientMsg::Request(r.clone()), r.wire_bytes())?;
        wal(WalRecord::Request(r.clone()));
    }
    for a in &m.allocs {
        alloc.probe(&ServerMsg::Alloc(a.clone()), a.wire_bytes())?;
    }
    for u in &m.uploads {
        up.probe(&ClientMsg::Upload(u.clone()), u.wire_bytes())?;
        wal(WalRecord::Upload(u.clone()));
    }
    req.set(
        out,
        "request",
        "net.encode_request_ms",
        "net.decode_request_ms",
    );
    alloc.set(out, "alloc", "net.encode_alloc_ms", "net.decode_alloc_ms");
    up.set(
        out,
        "upload",
        "net.encode_upload_ms",
        "net.decode_upload_ms",
    );
    let ack = coca_net::encode_frame(&ServerMsg::UploadAck(0))
        .map_err(|e| format!("encode: {e}"))?
        .len() as f64;
    let sum = |c: &Codec| c.bytes.iter().sum::<f64>();
    let bytes = sum(&req) + sum(&alloc) + sum(&up) + ack * up.bytes.len() as f64;
    let rounds = (req.bytes.len() + up.bytes.len()) as f64 / 2.0;
    out.set("net.wire_kb_per_round", bytes / 1e3 / rounds);
    out.set("persist.wal_frame_ms", mean(&wal_s) * 1e3);
    out.set("persist.wal_bytes_per_record", mean(&wal_bytes));
    Ok(())
}

impl Timings {
    fn total_s(&self) -> f64 {
        [
            &self.request,
            &self.upload,
            &self.install,
            &self.frame,
            &self.end_round,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum()
    }
}

/// The engine's CoCa driver, rebuilt from public calls with a timer
/// around each client and server call.
struct TracedDriver<'a> {
    rt: &'a ModelRuntime,
    server: &'a mut CocaServer,
    clients: &'a mut [CocaClient],
    scratch: LookupScratch,
    live: usize,
    t: Timings,
}

/// Runs `f`, appending its wall time to `into`.
fn timed_into<R>(into: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let (r, dt) = timed(f);
    into.push(dt);
    r
}

impl MethodDriver for TracedDriver<'_> {
    type Request = CacheRequest;
    type Alloc = CacheAllocation;
    type Query = NoMsg;
    type Reply = NoMsg;
    type Upload = UpdateUpload;

    fn name(&self) -> &str {
        "CoCa (traced)"
    }

    fn cache_request(&mut self, k: usize) -> Option<CacheRequest> {
        Some(self.clients[k].cache_request())
    }

    fn serve_request(&mut self, _k: usize, req: CacheRequest) -> (CacheAllocation, SimDuration) {
        let server = &mut *self.server;
        let reply = timed_into(&mut self.t.request, || server.handle_request(&req));
        self.t.msgs.requests.push(req);
        self.t.msgs.allocs.push(reply.0.clone());
        reply
    }

    fn install(&mut self, k: usize, alloc: CacheAllocation) {
        let client = &mut self.clients[k];
        timed_into(&mut self.t.install, || client.install_cache(alloc.cache));
    }

    fn process_frame(&mut self, k: usize, frame: &Frame) -> FrameStep<NoMsg> {
        let (client, rt, scratch) = (&mut self.clients[k], self.rt, &mut self.scratch);
        let res = timed_into(&mut self.t.frame, || {
            client.process_frame(rt, frame, scratch)
        });
        if res.hit_point.is_some() {
            self.t.hits += 1;
        }
        FrameStep::Done(FrameOutcome {
            compute: res.latency,
            correct: res.correct,
            hit_point: res.hit_point,
        })
    }

    fn end_round(&mut self, k: usize) -> Option<UpdateUpload> {
        let client = &mut self.clients[k];
        Some(timed_into(&mut self.t.end_round, || client.end_round()))
    }

    fn serve_upload(&mut self, _k: usize, upload: UpdateUpload) -> SimDuration {
        self.t.msgs.uploads.push(upload.clone());
        let server = &mut *self.server;
        timed_into(&mut self.t.upload, || server.handle_upload(upload))
    }

    fn on_join(&mut self, _k: usize) {
        self.live += 1;
        self.server.set_flush_watermark(self.live);
    }

    fn on_leave(&mut self, k: usize) {
        self.server.on_client_leave();
        self.clients[k].install_cache(LocalCache::empty());
        self.live = self.live.saturating_sub(1);
        self.server.set_flush_watermark(self.live);
    }

    fn on_run_end(&mut self) {
        self.server.flush_pending();
    }
}

/// What a traced run measured.
struct Traced {
    report: EngineReport,
    table_digest: u64,
    t: Timings,
    world_s: f64,
    server_new_s: f64,
    drive_s: f64,
}

/// Builds the world and fleet exactly as `Engine::new` does and drives
/// the plan through [`TracedDriver`].
fn run_traced(spec: &ScenarioSpec) -> Traced {
    let t = Instant::now();
    let (scenario, plan) = materialize(spec);
    let world_s = t.elapsed().as_secs_f64();
    let mut cfg = EngineConfig::new(coca_config(spec));
    if cfg.coca.cache_budget_bytes == 0 {
        cfg.coca.cache_budget_bytes = scenario
            .rt
            .arch()
            .full_cache_bytes(scenario.rt.num_classes())
            / 8;
    }
    let t = Instant::now();
    let mut server = CocaServer::new(&scenario.rt, cfg.coca, scenario.seeds());
    let server_new_s = t.elapsed().as_secs_f64();
    server.set_costs(cfg.costs);
    let mut clients: Vec<CocaClient> = scenario
        .profiles
        .iter()
        .enumerate()
        .map(|(k, p)| {
            CocaClient::new(
                k as u64,
                cfg.coca,
                &scenario.rt,
                p.clone(),
                server.base_hit_profile().to_vec(),
            )
        })
        .collect();
    let live = plan
        .members
        .iter()
        .filter(|m| m.join_at_ms.is_none())
        .count();
    server.set_flush_watermark(live);
    let mut driver = TracedDriver {
        rt: &scenario.rt,
        server: &mut server,
        clients: &mut clients,
        scratch: LookupScratch::new(),
        live,
        t: Timings::default(),
    };
    let t = Instant::now();
    let report = drive_plan(&scenario, &mut driver, &plan);
    let drive_s = t.elapsed().as_secs_f64();
    let timings = std::mem::take(&mut driver.t);
    Traced {
        report,
        table_digest: server.global().digest(),
        t: timings,
        world_s,
        server_new_s,
        drive_s,
    }
}

/// Seconds per frame to iterate every member's frame stream on its own.
fn stream_s_per_frame(spec: &ScenarioSpec) -> f64 {
    let (scenario, plan) = materialize(spec);
    let t = Instant::now();
    let mut frames = 0u64;
    for (k, m) in plan.members.iter().enumerate() {
        let mut stream = scenario.stream(k);
        for _ in 0..m.rounds * plan.member_frames(k) {
            std::hint::black_box(stream.next_frame());
            frames += 1;
        }
    }
    t.elapsed().as_secs_f64() / frames.max(1) as f64
}

/// Traced and untraced runs of rep 0, alternated; one frame takes ~100 µs
/// and single runs of a world differ by ±15% on a shared host, so the
/// overhead is the ratio of the medians.
const OVERHEAD_PAIRS: usize = 5;

fn traced(spec: &ScenarioSpec, want: &Fingerprint, out: &mut Outcome) {
    let mut plain_s = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut traced_s = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut last = None;
    for pair in 0..OVERHEAD_PAIRS {
        let plain = untraced(spec);
        rerun_check(
            &format!("rerun{pair}"),
            plain.report.frames,
            &plain.fp,
            want,
            out,
        );
        plain_s.push(plain.run_s);
        let tr = run_traced(spec);
        let fp = fingerprint(&tr.report, tr.table_digest);
        rerun_check(&format!("traced{pair}"), tr.report.frames, &fp, want, out);
        traced_s.push(tr.drive_s);
        last = Some(tr);
    }
    let tr = last.expect("OVERHEAD_PAIRS >= 1");
    out.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_s).unwrap_or(0.0) / median(&plain_s).unwrap_or(f64::NAN) - 1.0),
    );
    let p50_us = |xs: &[f64]| median(xs).unwrap_or(0.0) * 1e6;
    let p50_ms = |xs: &[f64]| median(xs).unwrap_or(0.0) * 1e3;
    let frames = tr.report.frames as f64;
    out.set("client.frame_us", p50_us(&tr.t.frame));
    out.set("client.end_round_us", p50_us(&tr.t.end_round));
    out.set("client.install_us", p50_us(&tr.t.install));
    out.set("client.hits", tr.t.hits as f64);
    out.set("sim.frames", frames);
    out.set("sim.latency_ms", tr.report.mean_latency_ms);
    out.set("sim.hit_ratio", tr.report.hit_ratio);
    out.set("sim.accuracy_pct", tr.report.accuracy_pct);
    out.set("server.request_ms", p50_ms(&tr.t.request));
    out.set("server.upload_ms", p50_ms(&tr.t.upload));
    out.set(
        "driver.residual_us_per_frame",
        (tr.drive_s - tr.t.total_s()) / frames * 1e6,
    );
    out.set("data.stream_us_per_frame", stream_s_per_frame(spec) * 1e6);
    out.set("setup.world_ms", tr.world_s * 1e3);
    out.set("setup.server_new_ms", tr.server_new_s * 1e3);
    out.skip(
        &["server.flush_"],
        "per-upload merge: every upload merges in its own handler, nothing queues",
    );
    if let Err(e) = codec_probe(&tr.t.msgs, out) {
        out.fail(format!("codec probe: {e}"));
    }
    out.skip(
        &["daemon."],
        "the engine passes messages in memory: no socket, no worker queue",
    );
    out.skip(&["persist."], "the simulated server attaches no storage");
    out.skip(
        &["gen."],
        "the engine schedules its own events: no load generator",
    );
    out.skip(&["setup.attach_ms"], "no storage to attach");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_driver_reproduces_the_engine_exactly() {
        let spec = spec(7, 4, 30);
        let rep = untraced(&spec);
        let tr = run_traced(&spec);
        assert_eq!(fingerprint(&tr.report, tr.table_digest), rep.fp);
        assert_eq!(tr.t.frame.len() as u64, rep.planned);
        assert!(tr.t.hits > 0 && !tr.t.request.is_empty() && !tr.t.upload.is_empty());
    }

    #[test]
    fn the_spec_churns_and_drifts() {
        let spec = spec(1, ROUNDS, FRAMES);
        spec.validate().expect("valid spec");
        assert_eq!(spec.num_joins(), 3);
        let (_, plan) = materialize(&spec);
        assert_eq!(plan.members.len(), 9);
        assert!(plan.members.iter().filter(|m| m.leaves_early).count() == 2);
    }
}
