//! `serve_mix`: traffic into one `drdesync serve --stdio` process over
//! one pipe, one writer thread and one reader thread. 75 % of requests
//! repeat a pre-warmed 64-design hot set (cache hits); 25 % are
//! never-seen designs (misses that run the flow and insert into the
//! cache). The run alternates two kinds of chunk until its length has
//! passed: a latency chunk sends one request at a time and reports how
//! long each takes, a saturation chunk keeps the server busy and reports
//! its capacity under the same mix.
//!
//! Latency runs from the writer's send to the reader's receipt, with no
//! other request in flight: the per-request cost of the server and its
//! pipe, free of queueing. Latency under queueing grows faster than
//! linearly as a shared host slows, and an open-loop rate whose latency
//! the benchmark could hold steady left too little room for a change to
//! show (E2E.md).

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use drd_check::Rng;
use drd_liberty::vlib90;
use drd_netlist::hash::content_hash128;
use drd_serve::{json, Server};

use crate::calib;
use crate::inputs::{self, Design};
use crate::oneshot::setup_due;
use crate::proc::{self, Reaped};
use crate::report::{Metric, Obj, Outcome};
use crate::stats::{geomean, median, quantile};
use crate::Ctx;

/// The mix: weights of hits and misses. No recorded traffic exists for
/// the server, so hot-set size and hit share are chosen, not measured
/// (E2E.md gives the reasons); `job_ms` weighs the hit and the miss
/// median equally, so it does not depend on the share.
const HOT_SET: usize = 64;
const MIX: [u64; 2] = [75, 25];
/// Requests a saturation chunk keeps in flight: twice the count (8) at
/// which capacity stops rising on a 2-core host (E2E.md).
const OUTSTANDING: usize = 16;
/// Requests per latency chunk (sent one at a time) and per saturation
/// chunk: short enough that the reference runs around a chunk see the
/// host speed the chunk ran at, long enough for steady medians.
const LATENCY_CHUNK: usize = 200;
const SATURATION_CHUNK: usize = 500;
/// Rounds (a latency chunk and a saturation chunk each) after which the
/// server's peak RSS is read: a fixed count, so the cache it holds is
/// fixed by the seed, not by how fast the host got through the run.
const RSS_ROUNDS: usize = 4;

/// A vetted design: its request payload and the fingerprint of the
/// response an in-process server gives for it.
struct Vetted {
    escaped: String,
    /// `content_hash128` of the response after its `"cached":…` flag —
    /// the report, SDC, Verilog and trace fields.
    fingerprint: u128,
}

pub fn request_line(id: &str, escaped_verilog: &str) -> String {
    format!("{{\"id\":\"{id}\",\"kind\":\"desync\",\"verilog\":{escaped_verilog}}}\n")
}

/// The response's artifact half, `None` unless `status` is ok.
fn artifact_suffix(response: &str) -> Option<(bool, &str)> {
    let prefix_end = response.find("\"cached\":")?;
    if !response[..prefix_end].contains("\"status\":\"ok\"") {
        return None;
    }
    let rest = &response[prefix_end + "\"cached\":".len()..];
    if let Some(s) = rest.strip_prefix("true") {
        Some((true, s))
    } else {
        rest.strip_prefix("false").map(|s| (false, s))
    }
}

/// Keeps the candidates whose flow succeeds in process, with the
/// response fingerprint a correct server must reproduce. Vetting fans
/// out over `workers` plain threads (not the runner: its tasks hold
/// core tokens the server's own per-region tasks would wait for); the
/// result does not depend on the worker count.
fn vet(candidates: Vec<Design>, workers: usize) -> Result<Vec<Vetted>, String> {
    let lib = vlib90::high_speed();
    let server = Server::new(&lib, workers).map_err(|e| e.to_string())?;
    let vet_one = |d: &Design| {
        let escaped = json::escape(&d.verilog);
        let response = server.handle_line(request_line("v", &escaped).trim_end());
        let (_, suffix) = artifact_suffix(&response)?;
        Some(Vetted {
            fingerprint: content_hash128(suffix.as_bytes()),
            escaped,
        })
    };
    let mut vetted: Vec<Option<Vetted>> = candidates.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let (candidates, vet_one) = (&candidates, &vet_one);
                scope.spawn(move || {
                    let mine = candidates
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers.max(1));
                    mine.map(|(i, d)| (i, vet_one(d))).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("vetting thread panicked") {
                vetted[i] = v;
            }
        }
    });
    Ok(vetted.into_iter().flatten().collect())
}

/// `count` vetted designs, none of them `seen` before; `draw(rng, i)`
/// makes candidate `i`.
fn vetted_set(
    rng: &mut Rng,
    seen: &mut Seen,
    count: usize,
    workers: usize,
    draw: &dyn Fn(&mut Rng, usize) -> Design,
) -> Result<Vec<Vetted>, String> {
    let mut out = Vec::new();
    while out.len() < count {
        let batch = (out.len()..count)
            .map(|i| draw(rng, i))
            .filter(|d| seen.insert(content_hash128(d.verilog.as_bytes())))
            .collect();
        out.extend(vet(batch, workers)?);
    }
    Ok(out)
}

/// One parsed response line, as the reader thread saw it.
enum Reply {
    Job {
        n: usize,
        at: Instant,
        /// `(cached, fingerprint)`, `None` for a non-ok response.
        artifacts: Option<(bool, u128)>,
    },
    Stats(String),
    Eof,
}

fn reader(out: ChildStdout, tx: Sender<Reply>) {
    let mut lines = BufReader::new(out);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let at = Instant::now();
        let line = line.trim_end();
        let id = line
            .strip_prefix("{\"id\":\"")
            .and_then(|r| r.split_once('"'))
            .map_or("", |(id, _)| id);
        let reply = if let Some(n) = id.strip_prefix('j').and_then(|n| n.parse().ok()) {
            Reply::Job {
                n,
                at,
                artifacts: artifact_suffix(line)
                    .map(|(cached, s)| (cached, content_hash128(s.as_bytes()))),
            }
        } else {
            Reply::Stats(line.to_owned())
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
    let _ = tx.send(Reply::Eof);
}

/// Writes each batch of request lines; answers with the send instants.
fn writer(mut stdin: ChildStdin, rx: Receiver<Vec<String>>, done: Sender<Vec<Instant>>) {
    for batch in rx {
        let mut sent = Vec::with_capacity(batch.len());
        for line in batch {
            if stdin.write_all(line.as_bytes()).is_err() {
                return;
            }
            sent.push(Instant::now());
        }
        if done.send(sent).is_err() {
            return;
        }
    }
    // Dropping stdin closes the pipe: the server drains and exits.
}

/// One request of a chunk: which design and whether it is planned as a
/// hit.
struct Planned {
    n: usize,
    design: usize,
    hit: bool,
}

/// One chunk between two reference runs: what the pipe saw and how fast
/// the host was.
struct Chunk {
    /// Per request: whether it was planned as a hit, and its latency (s)
    /// from send to answer — infinite when unanswered.
    latency: Vec<(bool, f64)>,
    /// Answers the server marked `cached`.
    hits: u64,
    /// First send to last answer (s).
    elapsed_s: f64,
    /// Server CPU seconds over the chunk.
    cpu_s: f64,
    /// Host-speed scale from the reference runs around the chunk.
    scale: f64,
}

impl Chunk {
    fn p50_s(&self, hit: bool) -> f64 {
        let v: Vec<f64> = self
            .latency
            .iter()
            .filter(|l| l.0 == hit)
            .map(|l| l.1)
            .collect();
        median(&v)
    }
}

/// Median over chunks of a per-chunk value.
fn over(chunks: &[Chunk], f: impl Fn(&Chunk) -> f64) -> f64 {
    median(&chunks.iter().map(f).collect::<Vec<_>>())
}

/// Every chunk of one kind.
struct Phase(Vec<Chunk>);

impl Phase {
    fn latencies(&self, keep: impl Fn(bool) -> bool) -> Vec<f64> {
        self.0
            .iter()
            .flat_map(|c| c.latency.iter().filter(|l| keep(l.0)).map(|l| l.1))
            .collect()
    }

    /// Latency chunks: geometric mean of the hit and the miss median
    /// latency (ms), each the median over chunks of the chunk's scaled
    /// median.
    fn job_ms(&self) -> f64 {
        let class = |hit: bool| over(&self.0, |c| c.p50_s(hit) * c.scale);
        ms(geomean(&[class(true), class(false)]))
    }

    /// Saturation chunks: jobs per second, the median over chunks of the
    /// scaled throughput.
    fn rate(&self) -> f64 {
        over(&self.0, |c| c.latency.len() as f64 / c.elapsed_s / c.scale)
    }

    /// Saturation chunks: server CPU time per request (ms), the median
    /// over chunks of the scaled value.
    fn cpu_ms(&self) -> f64 {
        ms(over(&self.0, |c| {
            c.cpu_s / c.latency.len() as f64 * c.scale
        }))
    }

    /// Requests, planned and observed cache hits and host speed: what
    /// both kinds report.
    fn json(&self) -> Obj {
        Obj::default()
            .raw("chunks", self.0.len())
            .raw("requests", self.latencies(|_| true).len())
            .raw("planned_hits", self.latencies(|hit| hit).len())
            .raw("hits", self.0.iter().map(|c| c.hits).sum::<u64>())
            .num("host_scale", over(&self.0, |c| c.scale))
    }

    /// The latency chunks' detail: unscaled percentiles over every
    /// request (the p99 rests on `requests` samples).
    fn latency_json(&self) -> String {
        let all = self.latencies(|_| true);
        self.json()
            .num("raw_lat_ms.p50", ms(median(&all)))
            .num("raw_lat_ms.p99", ms(quantile(&all, 0.99)))
            .num("raw_hit_ms.p50", ms(median(&self.latencies(|hit| hit))))
            .num("raw_miss_ms.p50", ms(median(&self.latencies(|hit| !hit))))
            .done()
    }

    fn saturation_json(&self) -> String {
        let requests: usize = self.0.iter().map(|c| c.latency.len()).sum();
        let elapsed: f64 = self.0.iter().map(|c| c.elapsed_s).sum();
        self.json()
            .raw("outstanding", OUTSTANDING)
            .num("elapsed_s", elapsed)
            .num("raw_jobs_per_s", requests as f64 / elapsed)
            .done()
    }
}

fn or_null(json: &str) -> &str {
    if json.is_empty() {
        "null"
    } else {
        json
    }
}

/// The live session with one server process.
struct Session {
    /// Dropping it ends the writer, which closes the server's stdin.
    to_writer: Option<Sender<Vec<String>>>,
    sent: Receiver<Vec<Instant>>,
    /// Batches handed to the writer whose send times are not read yet.
    batches: usize,
    replies: Receiver<Reply>,
    next_id: usize,
    attempted: u64,
    failed: u64,
    /// Answers marked `cached`, so far.
    hits: u64,
    /// Start-up samples taken so far, failed ones included.
    setup_attempted: u64,
    first_failure: Option<String>,
    /// Set when the server stopped answering: later waits end at once,
    /// so a hung server cannot stretch the run past its time limit.
    dead: bool,
}

impl Session {
    fn send(&mut self, batch: Vec<String>) {
        if let Some(tx) = &self.to_writer {
            if tx.send(batch).is_ok() {
                self.batches += 1;
            }
        }
    }

    /// Send times of every batch since the last call, in send order.
    fn sent_times(&mut self) -> Vec<Instant> {
        let mut out = Vec::new();
        for _ in 0..std::mem::take(&mut self.batches) {
            out.extend(self.sent.recv().unwrap_or_default());
        }
        out
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("e2e: FAILED {what}");
        self.first_failure.get_or_insert(what);
    }

    fn line(p: &Planned, designs: &[Vetted]) -> String {
        request_line(&format!("j{}", p.n), &designs[p.design].escaped)
    }

    /// Keeps `outstanding` requests of `plan` in flight, sending the next
    /// as each answer arrives, and checks each answer against its
    /// design's fingerprint. A request with no answer within a minute of
    /// the previous one counts as failed. Whether an answer came from the
    /// cache is counted, not checked: a server may evict and recompute.
    /// Returns per request `(sent, answered)`.
    fn exchange(
        &mut self,
        plan: &[Planned],
        designs: &[Vetted],
        outstanding: usize,
    ) -> Vec<(Instant, Option<Instant>)> {
        self.attempted += plan.len() as u64;
        let started = Instant::now();
        let base = plan.first().map_or(0, |p| p.n);
        let mut next = outstanding.min(plan.len());
        self.send(
            plan[..next]
                .iter()
                .map(|p| Session::line(p, designs))
                .collect(),
        );
        let mut answered: Vec<Option<Instant>> = vec![None; plan.len()];
        let mut left = plan.len();
        while left > 0 && !self.dead {
            let (n, at, artifacts) = match self.replies.recv_timeout(Duration::from_secs(60)) {
                Ok(Reply::Job { n, at, artifacts }) => (n, at, artifacts),
                Ok(Reply::Stats(s)) => {
                    self.fail(format!("unexpected line {s:.80}"));
                    continue;
                }
                Ok(Reply::Eof) | Err(_) => {
                    self.dead = true;
                    break;
                }
            };
            let Some(i) = n.checked_sub(base).filter(|&i| i < plan.len()) else {
                self.fail(format!("response for unknown job j{n}"));
                continue;
            };
            if answered[i].replace(at).is_some() {
                self.fail(format!("job j{n} answered twice"));
                continue;
            }
            left -= 1;
            match artifacts {
                Some((cached, got)) if got == designs[plan[i].design].fingerprint => {
                    self.hits += u64::from(cached);
                }
                Some(_) => self.fail(format!("job j{n}: artifacts differ from in-process")),
                None => self.fail(format!("job j{n}: response not ok")),
            }
            if let Some(p) = plan.get(next) {
                self.send(vec![Session::line(p, designs)]);
                next += 1;
            }
        }
        for _ in 0..left {
            self.fail("job left unanswered".to_owned());
        }
        self.sent_times()
            .into_iter()
            .chain(std::iter::repeat(started))
            .zip(answered)
            .collect()
    }

    fn stats(&mut self) -> String {
        let id = self.next_id;
        self.next_id += 1;
        self.send(vec![format!("{{\"id\":\"s{id}\",\"kind\":\"stats\"}}\n")]);
        self.sent_times();
        let reply = if self.dead {
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        } else {
            self.replies.recv_timeout(Duration::from_secs(30))
        };
        match reply {
            Ok(Reply::Stats(s)) if json::parse(&s).is_ok() => s,
            _ => {
                self.dead = true;
                self.fail("stats request unanswered".to_owned());
                String::new()
            }
        }
    }
}

/// The mix: `count` requests. Exactly [`MIX`]'s share of them (rounded)
/// are hits, in random order ([`inputs::stratified`]); hits pick from
/// the hot set, misses are fresh designs numbered from `first_miss`.
fn mix(rng: &mut Rng, count: usize, first_n: usize, first_miss: usize) -> Vec<Planned> {
    let classes = inputs::stratified(rng, count, &MIX);
    let mut miss = first_miss;
    classes
        .into_iter()
        .enumerate()
        .map(|(i, class)| {
            let hit = class == 0;
            let design = if hit {
                rng.range(0, HOT_SET)
            } else {
                miss += 1;
                miss - 1
            };
            Planned {
                n: first_n + i,
                design,
                hit,
            }
        })
        .collect()
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

/// Spawn to the first `stats` reply, then shut down.
fn setup_sample(ctx: &Ctx) -> Result<f64, String> {
    let start = Instant::now();
    let mut child = server_command(ctx)
        .spawn()
        .map_err(|e| format!("spawn serve: {e}"))?;
    let mut stdin = child.stdin.take().ok_or("no stdin")?;
    let mut out = BufReader::new(child.stdout.take().ok_or("no stdout")?);
    let mut line = String::new();
    let asked = stdin.write_all(b"{\"id\":\"s\",\"kind\":\"stats\"}\n");
    let read = out.read_line(&mut line);
    let elapsed = start.elapsed().as_secs_f64();
    let _ = stdin.write_all(b"{\"id\":\"bye\",\"kind\":\"shutdown\"}\n");
    drop(stdin);
    let mut rest = String::new();
    while out.read_line(&mut rest).is_ok_and(|n| n > 0) {}
    let reaped = proc::reap(child).map_err(|e| format!("reap serve: {e}"))?;
    match (asked, read, reaped.code) {
        (Ok(()), Ok(_), Some(0)) if json::parse(line.trim_end()).is_ok() => Ok(elapsed),
        _ => Err(format!(
            "set-up run failed: `{}` exit {:?}",
            line.trim_end(),
            reaped.code
        )),
    }
}

fn server_command(ctx: &Ctx) -> Command {
    let mut cmd = Command::new(&ctx.bin);
    cmd.args(["serve", "--stdio", "--jobs", &ctx.workers.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

/// Runs one chunk with `outstanding` requests in flight, between two
/// reference runs on the server's `threads` workers' worth of threads.
fn chunk(
    session: &mut Session,
    plan: &[Planned],
    designs: &[Vetted],
    pid: u32,
    outstanding: usize,
    threads: usize,
) -> Result<Chunk, String> {
    let cpu = || proc::cpu_s(pid).map_err(|e| format!("server cpu: {e}"));
    let before = calib::reference_s(threads);
    let cpu0 = cpu()?;
    let hits0 = session.hits;
    let timeline = session.exchange(plan, designs, outstanding);
    let cpu_s = cpu()? - cpu0;
    let scale = calib::scale(before, calib::reference_s(threads));
    let first = timeline.iter().map(|t| t.0).min();
    let last = timeline.iter().filter_map(|t| t.1).max();
    Ok(Chunk {
        latency: plan
            .iter()
            .zip(&timeline)
            .map(|(p, &(sent, answered))| {
                let s = answered.map_or(f64::INFINITY, |a| {
                    a.saturating_duration_since(sent).as_secs_f64()
                });
                (p.hit, s)
            })
            .collect(),
        hits: session.hits - hits0,
        elapsed_s: first.zip(last).map_or(f64::NAN, |(f, l)| {
            l.saturating_duration_since(f).as_secs_f64()
        }),
        cpu_s,
        scale,
    })
}

/// Designs already sent: a fresh design must differ from all of them,
/// or its "miss" would be a hit.
type Seen = HashSet<u128>;

/// Everything the session measured.
struct Phases {
    latency: Phase,
    saturation: Phase,
    /// The server's peak RSS after [`RSS_ROUNDS`] rounds (MB).
    peak_rss_mb: f64,
    /// Spawn to first `stats` reply of fresh servers (s).
    setup: Vec<f64>,
    /// The server's `stats` reply at the end.
    stats: String,
}

/// Pre-warms the hot set, then runs rounds of one latency chunk and one
/// saturation chunk until the run's length has passed, so both kinds see
/// the host over the whole run. Each chunk's never-seen designs are
/// vetted before it starts, never inside it.
fn phases(
    ctx: &Ctx,
    session: &mut Session,
    designs: &mut Vec<Vetted>,
    seen: &mut Seen,
    rng: &mut Rng,
    pid: u32,
) -> Result<Phases, String> {
    let warm: Vec<Planned> = (0..HOT_SET)
        .map(|i| Planned {
            n: session.next_id + i,
            design: i,
            hit: false,
        })
        .collect();
    session.next_id += HOT_SET;
    session.exchange(&warm, designs, OUTSTANDING);

    let start = Instant::now();
    let mut setup = Vec::new();
    // Start-up samples that fell due during a chunk are taken after it.
    let mut run = |session: &mut Session, designs: &mut Vec<Vetted>, count, outstanding| {
        let plan = mix(rng, count, session.next_id, designs.len());
        session.next_id += plan.len();
        let misses = plan.iter().filter(|p| !p.hit).count();
        let classes = inputs::stratified(rng, misses, &inputs::MISS_MIX);
        designs.extend(vetted_set(rng, seen, misses, ctx.workers, &|rng, i| {
            inputs::serve_candidate(rng, classes[i], format!("c{i}"))
        })?);
        let done = chunk(session, &plan, designs, pid, outstanding, ctx.workers);
        while (session.setup_attempted as usize) < setup_due(ctx, start.elapsed().as_secs_f64()) {
            session.setup_attempted += 1;
            session.attempted += 1;
            match setup_sample(ctx) {
                Ok(s) => setup.push(s),
                Err(e) => session.fail(e),
            }
        }
        done
    };
    let (latency_n, saturation_n) = if ctx.smoke {
        (40, 200)
    } else {
        (LATENCY_CHUNK, SATURATION_CHUNK)
    };
    let (mut latency, mut saturation) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = None;
    // Read from `/proc` while the server runs: its own peak, which
    // wait4's `ru_maxrss` would mix with this process's (see
    // `proc::measure`).
    let read_rss = || proc::peak_rss_mb(pid).map_err(|e| format!("server peak RSS: {e}"));
    loop {
        latency.push(run(session, designs, latency_n, 1)?);
        saturation.push(run(session, designs, saturation_n, OUTSTANDING)?);
        if latency.len() == RSS_ROUNDS {
            peak_rss_mb = Some(read_rss()?);
        }
        let more = latency.len() < RSS_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds;
        if ctx.smoke || !more {
            break;
        }
    }
    let peak_rss_mb = match peak_rss_mb {
        Some(mb) => mb,
        None => read_rss()?,
    };
    let (latency, saturation) = (Phase(latency), Phase(saturation));
    eprintln!(
        "e2e: serve: job {:.3} ms, saturated {:.0} jobs/s",
        latency.job_ms(),
        saturation.rate()
    );
    Ok(Phases {
        latency,
        saturation,
        peak_rss_mb,
        setup,
        stats: session.stats(),
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = inputs::rng(ctx.seed, 0x5E4E);
    let mut seen = Seen::new();
    let mut designs = vetted_set(&mut rng, &mut seen, HOT_SET, ctx.workers, &|rng, i| {
        inputs::hot_candidate(rng, format!("h{i}"))
    })?;

    let mut child = server_command(ctx)
        .spawn()
        .map_err(|e| format!("spawn serve: {e}"))?;
    let pid = child.id();
    let stdin = child.stdin.take().ok_or("no stdin")?;
    let stdout = child.stdout.take().ok_or("no stdout")?;
    let (to_writer, writer_rx) = channel();
    let (sent_tx, sent) = channel();
    let (reply_tx, replies) = channel();
    let mut session = Session {
        to_writer: Some(to_writer),
        sent,
        batches: 0,
        replies,
        next_id: 0,
        attempted: 0,
        failed: 0,
        hits: 0,
        setup_attempted: 0,
        first_failure: None,
        dead: false,
    };
    let measured = std::thread::scope(|scope| {
        scope.spawn(move || writer(stdin, writer_rx, sent_tx));
        scope.spawn(move || reader(stdout, reply_tx));
        let result = phases(ctx, &mut session, &mut designs, &mut seen, &mut rng, pid);
        session.to_writer = None;
        result
    });
    let reaped: Reaped = proc::reap(child).map_err(|e| format!("reap serve: {e}"))?;
    let m = measured?;
    if reaped.code != Some(0) {
        session.fail(format!("serve exited with {:?}", reaped.code));
    }
    let host_scale = median(
        &m.latency
            .0
            .iter()
            .chain(&m.saturation.0)
            .map(|c| c.scale)
            .collect::<Vec<_>>(),
    );
    let detail = Obj::default()
        .raw("seed", ctx.seed)
        .raw("hot_set", HOT_SET)
        .raw("workers", ctx.workers)
        .raw("latency", m.latency.latency_json())
        .raw("saturation", m.saturation.saturation_json())
        .raw("stats", or_null(&m.stats))
        .str(
            "first_failure",
            session.first_failure.as_deref().unwrap_or(""),
        )
        .done();
    Ok(Outcome {
        attempted: session.attempted,
        failed: session.failed,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median(&m.setup) * host_scale,
                unit: "s",
            },
            Metric {
                name: "job_ms",
                value: m.latency.job_ms(),
                unit: "ms",
            },
            Metric {
                name: "job_cpu_ms",
                value: m.saturation.cpu_ms(),
                unit: "ms",
            },
            Metric {
                name: "rate",
                value: m.saturation.rate(),
                unit: "1/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: m.peak_rss_mb,
                unit: "MB",
            },
        ],
        detail,
    })
}
