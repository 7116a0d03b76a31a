//! The long-running desynchronization server.
//!
//! One [`Server`] owns the prepared [`Desynchronizer`] (the gatefile is
//! built once and shared immutably by every job, and so are the library
//! facts the flow measures on the gatefile's first run), the flow cache
//! and the observability counters. The serve loops ([`serve_stream`] for
//! stdin/stdout or a socket connection, [`serve_unix`] for a Unix
//! listener) read request lines and answer `stats` and every cache hit on
//! the connection's reader thread, and spawn one scoped thread per cache
//! miss, so many flows run concurrently while a hit costs one hash, one
//! lookup and one copy. A hit is written before the next line is read, so
//! a client must keep reading replies while it sends.
//!
//! **Cross-job scheduling.** The flow runs serially, so a cold job is
//! one thread's work from parse to response. The server owns a fixed
//! count of tokens (one per core by default, `serve --jobs N` sets it):
//! each cold job holds one across parse and flow, so at most that many
//! flows run at once however many requests are in flight, and a job
//! waiting for a token waits in the queue. Cache hits and `stats` take
//! no token. Tokens gate only *when* a flow runs, never what it
//! computes, so artifacts stay byte-identical to a solo CLI run.
//!
//! **Flow cache.** Keyed on `(content_hash128(raw verilog bytes),
//! DesyncOptions::cache_key())`. The netlist half hashes the request's
//! raw source bytes, so a warm hit answers without parsing a single
//! token of Verilog; the options half is the canonicalized option string
//! (sorted/deduped false paths). Each entry is the response's tail — the
//! netlist hash, report, SDC, Verilog and deterministic trace fields —
//! escaped once when the flow finishes; the cold response and every hit
//! copy it behind their own `id` and `cached` flag, so a hit replays the
//! cold artifacts byte-identically. Only successful flows are cached —
//! errors re-run, so a transient budget/deadline failure is not sticky.
//!
//! **Deadlines.** A job's `deadline_ms` is enforced twice: a job whose
//! budget expired while it sat behind other work (its wait for a token
//! included) is answered with a `deadline` flow error without running,
//! and the remaining budget is handed to the flow's per-pass deadline
//! guard.
//!
//! **Shutdown.** A `shutdown` request stops intake, drains every
//! in-flight job (their responses are still written), then answers the
//! shutdown request last. EOF on stdin drains the same way, minus the
//! response.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use drd_core::{DesyncError, DesyncResult, Desynchronizer, FlowTrace};
use drd_liberty::Library;
use drd_netlist::hash::content_hash128;

use crate::json;
use crate::protocol::{self, DesyncJob, Request};

/// A flow-cache key: the content hash of the request's raw Verilog and
/// the canonical options string.
type Key = (u128, String);

/// Monotonic counters behind one lock (every update is a handful of
/// integer bumps; jobs spend their time in the flow, not here).
#[derive(Debug, Default)]
struct Counters {
    jobs_ok: u64,
    jobs_failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Accumulated wall time per flow pass, across all cold jobs.
    phase_wall_ns: BTreeMap<&'static str, u128>,
}

/// A desynchronization job server. See the module docs for the design.
pub struct Server<'a> {
    lib: &'a Library,
    tool: Desynchronizer<'a>,
    /// Per successful flow, its response tail (see [`response_tail`]).
    cache: Mutex<HashMap<Key, Arc<str>>>,
    counters: Mutex<Counters>,
    in_flight: AtomicUsize,
    /// One per flow that may run at once.
    tokens: Tokens,
}

impl<'a> Server<'a> {
    /// Prepares a server for `lib` that runs at most `tokens` flows at
    /// once (at least one): builds the gatefile once.
    ///
    /// # Errors
    /// Returns [`DesyncError::Library`] when the library cannot support
    /// desynchronization.
    pub fn new(lib: &'a Library, tokens: usize) -> Result<Self, DesyncError> {
        Ok(Server {
            lib,
            tool: Desynchronizer::new(lib)?,
            cache: Mutex::new(HashMap::new()),
            counters: Mutex::new(Counters::default()),
            in_flight: AtomicUsize::new(0),
            tokens: Tokens::new(tokens),
        })
    }

    /// The library this server desynchronizes against.
    pub fn library(&self) -> &Library {
        self.lib
    }

    /// Executes one parsed request and returns its response line
    /// (without trailing newline). Synchronous: a cache miss runs the
    /// flow on the calling thread. `received` is when the request line
    /// was read, the anchor for the job deadline.
    pub fn execute(&self, request: &Request, received: Instant) -> String {
        match request {
            Request::Stats { id } => self.stats_response(id),
            Request::Shutdown { id } => self.shutdown_response(id),
            Request::Desync(job) => self
                .lookup(job)
                .unwrap_or_else(|key| self.run_miss(job, key, received)),
        }
    }

    /// Parses and executes one raw request line — the single-call path
    /// for in-process callers (benchmarks, tests). Never panics on bad
    /// input; malformed lines come back as `request` error responses.
    pub fn handle_line(&self, line: &str) -> String {
        match protocol::parse_request(line) {
            Err(e) => protocol::error_response(&e.id, "request", "", &e.message),
            Ok(request) => self.execute(&request, Instant::now()),
        }
    }

    /// A cache hit's response line, or on a miss the job's cache key,
    /// for [`Self::run_miss`].
    fn lookup(&self, job: &DesyncJob) -> Result<String, Key> {
        let _depth = InFlight::enter(&self.in_flight);
        let key = (
            content_hash128(job.verilog.as_bytes()),
            job.options.cache_key(),
        );
        let hit = self.cache.lock().unwrap().get(&key).map(Arc::clone);
        let mut counters = self.counters.lock().unwrap();
        match hit {
            Some(tail) => {
                counters.cache_hits += 1;
                counters.jobs_ok += 1;
                drop(counters);
                Ok(ok_response(&job.id, true, &tail))
            }
            None => {
                counters.cache_misses += 1;
                Err(key)
            }
        }
    }

    /// Runs the flow for a job [`Self::lookup`] missed, caching a
    /// success under `key`.
    fn run_miss(&self, job: &DesyncJob, key: Key, received: Instant) -> String {
        let _depth = InFlight::enter(&self.in_flight);
        // One token across parse and flow, taken first, so the wait for
        // it counts against the deadline below.
        let _token = self.tokens.acquire();
        // The queue-side half of the deadline: a job that waited past its
        // whole budget is answered without running at all.
        let mut options = job.options.clone();
        if let Some(deadline_ms) = job.deadline_ms {
            let waited_ms = received.elapsed().as_millis() as u64;
            if waited_ms >= deadline_ms {
                self.counters.lock().unwrap().jobs_failed += 1;
                return protocol::error_response(
                    &job.id,
                    "flow",
                    "deadline",
                    &format!("job spent {waited_ms} ms queued, past its {deadline_ms} ms deadline"),
                );
            }
            let remaining = deadline_ms - waited_ms;
            options.pass_deadline_ms = Some(
                options
                    .pass_deadline_ms
                    .map_or(remaining, |p| p.min(remaining)),
            );
        }

        let module = match drd_netlist::verilog::parse_module(&job.verilog) {
            Ok(m) => m,
            Err(e) => {
                self.counters.lock().unwrap().jobs_failed += 1;
                return protocol::error_response(&job.id, "parse", "", &e.to_string());
            }
        };

        let (outcome, trace) = self.tool.run(module, &options);
        {
            let mut counters = self.counters.lock().unwrap();
            for pass in &trace.passes {
                *counters.phase_wall_ns.entry(pass.name).or_insert(0) += pass.wall_ns;
            }
        }
        match outcome {
            Err(e) => {
                self.counters.lock().unwrap().jobs_failed += 1;
                protocol::error_response(&job.id, "flow", protocol::error_class(&e), &e.to_string())
            }
            Ok(result) => {
                let tail: Arc<str> = response_tail(key.0, &result, &trace).into();
                self.cache.lock().unwrap().insert(key, Arc::clone(&tail));
                self.counters.lock().unwrap().jobs_ok += 1;
                ok_response(&job.id, false, &tail)
            }
        }
    }

    fn stats_response(&self, id: &str) -> String {
        let counters = self.counters.lock().unwrap();
        let hits = counters.cache_hits;
        let misses = counters.cache_misses;
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        let (capacity, available, waiting) = self.tokens.stats();
        let mut phases = String::from("{");
        for (i, (name, wall_ns)) in counters.phase_wall_ns.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!("\"{name}\":{:.3}", *wall_ns as f64 / 1e6));
        }
        phases.push('}');
        let mut out = String::from("{\"id\":");
        json::escape_into(&mut out, id);
        out.push_str(&format!(
            ",\"status\":\"ok\",\"kind\":\"stats\",\"jobs_served\":{},\"jobs_ok\":{},\
             \"jobs_failed\":{},\"cache_hits\":{hits},\"cache_misses\":{misses},\
             \"cache_hit_rate\":{hit_rate:.4},\"cache_entries\":{},\"queue_depth\":{},\
             \"governor_capacity\":{capacity},\"governor_available\":{available},\
             \"governor_waiting\":{waiting},\"phase_wall_ms\":{phases}}}",
            counters.jobs_ok + counters.jobs_failed,
            counters.jobs_ok,
            counters.jobs_failed,
            self.cache.lock().unwrap().len(),
            self.in_flight.load(Ordering::Relaxed),
        ));
        out
    }

    fn shutdown_response(&self, id: &str) -> String {
        let counters = self.counters.lock().unwrap();
        let mut out = String::from("{\"id\":");
        json::escape_into(&mut out, id);
        out.push_str(&format!(
            ",\"status\":\"ok\",\"kind\":\"shutdown\",\"jobs_served\":{}}}",
            counters.jobs_ok + counters.jobs_failed
        ));
        out
    }
}

/// The server's flow tokens: a counting semaphore.
struct Tokens {
    capacity: usize,
    state: Mutex<TokenState>,
    returned: Condvar,
}

struct TokenState {
    /// Tokens no job holds.
    free: usize,
    /// Jobs blocked until a token frees.
    waiting: usize,
}

impl Tokens {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tokens {
            capacity,
            state: Mutex::new(TokenState {
                free: capacity,
                waiting: 0,
            }),
            returned: Condvar::new(),
        }
    }

    /// Takes a token, blocking until one is free. The token returns when
    /// the guard drops, so a panicking holder cannot leak it.
    fn acquire(&self) -> Token<'_> {
        let mut state = self.state.lock().unwrap();
        state.waiting += 1;
        while state.free == 0 {
            state = self.returned.wait(state).unwrap();
        }
        state.free -= 1;
        state.waiting -= 1;
        Token(self)
    }

    /// `(capacity, free, waiting)`, for `stats`.
    fn stats(&self) -> (usize, usize, usize) {
        let state = self.state.lock().unwrap();
        (self.capacity, state.free, state.waiting)
    }
}

/// A held token (see [`Tokens::acquire`]).
struct Token<'a>(&'a Tokens);

impl Drop for Token<'_> {
    fn drop(&mut self) {
        // Every update leaves the counts valid, so a poisoned lock is
        // still safe to use, and a drop must not panic.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.free += 1;
        drop(state);
        self.0.returned.notify_one();
    }
}

/// RAII in-flight counter, so a panicking job thread cannot leave the
/// queue depth stuck.
struct InFlight<'a>(&'a AtomicUsize);

impl<'a> InFlight<'a> {
    fn enter(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::Relaxed);
        InFlight(counter)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The part of a successful `desync` response after its `cached` flag —
/// `"netlist_hash":…,"report":…,"sdc":…,"verilog":…,"trace":…}` — with
/// every artifact escaped: exactly the bytes a cache hit must replay.
fn response_tail(netlist_hash: u128, result: &DesyncResult, trace: &FlowTrace) -> String {
    let report = format!("{:?}", result.report);
    let verilog = drd_netlist::verilog::write_design(&result.design);
    let trace = trace.to_json_deterministic();
    let mut out =
        String::with_capacity(report.len() + result.sdc.len() + verilog.len() + trace.len() + 128);
    out.push_str(&format!(
        "\"netlist_hash\":\"{netlist_hash:032x}\",\"report\":"
    ));
    json::escape_into(&mut out, &report);
    out.push_str(",\"sdc\":");
    json::escape_into(&mut out, &result.sdc);
    out.push_str(",\"verilog\":");
    json::escape_into(&mut out, &verilog);
    // The deterministic trace is pretty-printed (multi-line) JSON, so it
    // rides as an escaped string — a raw embed would break the
    // one-line-per-response NDJSON contract.
    out.push_str(",\"trace\":");
    json::escape_into(&mut out, &trace);
    out.push('}');
    out
}

/// A successful `desync` response: `id` and `cached` ahead of the
/// cached response tail.
fn ok_response(id: &str, cached: bool, tail: &str) -> String {
    let mut out = String::with_capacity(id.len() + tail.len() + 64);
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"ok\",\"exit_code\":0,\"cached\":");
    out.push_str(if cached { "true," } else { "false," });
    out.push_str(tail);
    out
}

/// Serves one NDJSON stream until EOF, a `shutdown` request, or `stop`
/// is raised by another connection. `stats` and cache hits are answered
/// on this (the reader) thread — `stats` so it reflects the live queue, a
/// hit because it costs less than a thread spawn; each cache miss runs
/// the flow on its own scoped thread (responses interleave in completion
/// order, matched by `id`). The reader writes those answers before it
/// reads on, so a client must keep reading replies while it sends.
/// Returns `true` when this stream received the shutdown request.
///
/// The reader may be on a socket with a read timeout: `WouldBlock` /
/// `TimedOut` reads just re-check `stop` and continue (a partially-read
/// line survives in the buffer across retries).
///
/// # Errors
/// Propagates reader/writer I/O failures (except timeouts).
pub fn serve_stream<R, W>(
    server: &Server<'_>,
    mut reader: R,
    writer: W,
    stop: &AtomicBool,
) -> std::io::Result<bool>
where
    R: BufRead,
    W: Write + Send,
{
    let writer = Mutex::new(writer);
    let write_line = |line: &str| -> std::io::Result<()> {
        let mut w = writer.lock().unwrap();
        writeln!(w, "{line}")?;
        w.flush()
    };
    let failure: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let mut shutdown_id: Option<String> = None;

    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut line = String::new();
        loop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()),
                Ok(_) => {
                    let text = line.trim();
                    if !text.is_empty() {
                        match protocol::parse_request(text) {
                            Err(e) => write_line(&protocol::error_response(
                                &e.id, "request", "", &e.message,
                            ))?,
                            Ok(Request::Shutdown { id }) => {
                                shutdown_id = Some(id);
                                return Ok(());
                            }
                            Ok(Request::Stats { id }) => {
                                write_line(&server.stats_response(&id))?;
                            }
                            Ok(Request::Desync(job)) => {
                                let received = Instant::now();
                                match server.lookup(&job) {
                                    Ok(hit) => write_line(&hit)?,
                                    Err(key) => {
                                        let write_line = &write_line;
                                        let failure = &failure;
                                        scope.spawn(move || {
                                            let response = server.run_miss(&job, key, received);
                                            if let Err(e) = write_line(&response) {
                                                let mut slot = failure.lock().unwrap();
                                                slot.get_or_insert(e);
                                            }
                                        });
                                    }
                                }
                            }
                        }
                    }
                    line.clear();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Poll `stop`; any partial line stays buffered.
                }
                Err(e) => return Err(e),
            }
        }
        // The scope exit below joins every in-flight job (graceful
        // drain) before the shutdown response goes out.
    })?;

    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    match shutdown_id {
        Some(id) => {
            write_line(&server.shutdown_response(&id))?;
            stop.store(true, Ordering::Relaxed);
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Serves a Unix domain socket at `path` until some connection sends a
/// `shutdown` request. Each connection gets its own [`serve_stream`]
/// thread; jobs from all connections share the flow cache and the
/// server's tokens. The socket file is created fresh (a stale one is
/// unlinked) and removed on exit.
///
/// # Errors
/// Propagates bind/accept failures.
pub fn serve_unix(server: &Server<'_>, path: &std::path::Path) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| -> std::io::Result<()> {
        loop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
                    let reader = std::io::BufReader::new(stream.try_clone()?);
                    let stop = &stop;
                    scope.spawn(move || {
                        // A connection-level I/O failure (client hung up
                        // mid-job) only ends that connection.
                        let _ = serve_stream(server, reader, stream, stop);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    });
    let _ = std::fs::remove_file(path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use drd_liberty::vlib90;

    /// A tiny but real synchronous design the flow fully desynchronizes.
    fn toy_verilog(name: &str) -> String {
        format!(
            "module {name} (clk, d, q);\n\
             input clk, d;\n\
             output q;\n\
             wire n1;\n\
             INVX1 u1 (.A(d), .Z(n1));\n\
             DFFX1 r0 (.D(n1), .CK(clk), .Q(q));\n\
             endmodule\n"
        )
    }

    fn request_line(id: &str, verilog: &str) -> String {
        format!(
            "{{\"id\":{},\"kind\":\"desync\",\"verilog\":{}}}",
            json::escape(id),
            json::escape(verilog)
        )
    }

    #[test]
    fn jobs_cache_and_errors_flow_through_one_server() {
        let lib = vlib90::high_speed();
        let server = Server::new(&lib, 4).unwrap();

        // Cold job: full artifact set, cached:false.
        let cold = server.handle_line(&request_line("j1", &toy_verilog("t")));
        assert!(cold.contains("\"status\":\"ok\""), "{cold}");
        assert!(cold.contains("\"cached\":false"), "{cold}");
        assert!(cold.contains("\"exit_code\":0"));
        for field in [
            "\"report\":",
            "\"sdc\":",
            "\"verilog\":",
            "\"trace\":",
            "\"netlist_hash\":",
        ] {
            assert!(cold.contains(field), "missing {field} in {cold}");
        }

        // Warm job, different id: byte-identical artifacts, cached:true.
        let warm = server.handle_line(&request_line("j2", &toy_verilog("t")));
        assert!(warm.contains("\"cached\":true"), "{warm}");
        assert_eq!(
            cold.replace("\"id\":\"j1\"", "")
                .replace("\"cached\":false", ""),
            warm.replace("\"id\":\"j2\"", "")
                .replace("\"cached\":true", ""),
            "cache hit must replay the cold artifacts byte-identically"
        );

        // Different options → different cache key → cold again.
        let other = server.handle_line(&format!(
            "{{\"id\":\"j3\",\"kind\":\"desync\",\"options\":{{\"muxed\":true}},\"verilog\":{}}}",
            json::escape(&toy_verilog("t"))
        ));
        assert!(other.contains("\"cached\":false"), "{other}");

        // Parse error → exit 2, server keeps serving.
        let bad = server.handle_line(&request_line("j4", "module broken ((("));
        assert!(bad.contains("\"error_kind\":\"parse\"") && bad.contains("\"exit_code\":2"));

        // Malformed JSON → request error, exit 1.
        let mal = server.handle_line("{\"id\":\"j5\",");
        assert!(mal.contains("\"error_kind\":\"request\"") && mal.contains("\"exit_code\":1"));

        // Flow error (impossible cell budget) → exit 3 with a class.
        let tight = server.handle_line(&format!(
            "{{\"id\":\"j6\",\"kind\":\"desync\",\"options\":{{\"max_cells\":1}},\"verilog\":{}}}",
            json::escape(&toy_verilog("t"))
        ));
        assert!(tight.contains("\"error_kind\":\"flow\"") && tight.contains("\"exit_code\":3"));
        assert!(tight.contains("\"error_class\":\"budget\""), "{tight}");

        // Stats reflect all of the above.
        let stats = server.handle_line("{\"id\":\"s\",\"kind\":\"stats\"}");
        // j5 (malformed JSON) never became a job: 3 ok + 2 failed.
        assert!(stats.contains("\"jobs_served\":5"), "{stats}");
        assert!(stats.contains("\"cache_hits\":1"), "{stats}");
        assert!(stats.contains("\"cache_entries\":2"), "{stats}");
        assert!(stats.contains("\"phase_wall_ms\":{\"clean\":"), "{stats}");
        let parsed = json::parse(&stats).unwrap();
        assert_eq!(parsed.get("queue_depth").unwrap().as_num(), Some(0.0));
        assert!(parsed.get("cache_hit_rate").unwrap().as_num().unwrap() > 0.0);
    }

    /// A failed job's completed passes still count in `phase_wall_ms`:
    /// the trace comes back with the error, not only on success.
    #[test]
    fn failed_jobs_still_count_their_pass_time() {
        let lib = vlib90::high_speed();
        let server = Server::new(&lib, 4).unwrap();
        let tight = server.handle_line(&format!(
            "{{\"id\":\"t\",\"kind\":\"desync\",\"options\":{{\"max_cells\":1}},\"verilog\":{}}}",
            json::escape(&toy_verilog("t"))
        ));
        assert!(tight.contains("\"error_class\":\"budget\""), "{tight}");
        let stats = json::parse(&server.handle_line("{\"id\":\"s\",\"kind\":\"stats\"}")).unwrap();
        assert_eq!(stats.get("jobs_ok").unwrap().as_num(), Some(0.0));
        assert_eq!(stats.get("jobs_failed").unwrap().as_num(), Some(1.0));
        let phases = stats.get("phase_wall_ms").expect("phase_wall_ms present");
        assert!(
            phases.get("clean").is_some(),
            "the tripping pass is timed: {phases:?}"
        );
    }

    #[test]
    fn expired_deadline_is_answered_without_running() {
        let lib = vlib90::high_speed();
        let server = Server::new(&lib, 4).unwrap();
        let request = protocol::parse_request(&format!(
            "{{\"id\":\"late\",\"kind\":\"desync\",\"deadline_ms\":1,\"verilog\":{}}}",
            json::escape(&toy_verilog("t"))
        ))
        .unwrap();
        let long_ago = Instant::now() - Duration::from_millis(50);
        let response = server.execute(&request, long_ago);
        assert!(
            response.contains("\"error_class\":\"deadline\""),
            "{response}"
        );
        assert!(response.contains("queued"), "{response}");
    }

    /// 8 eager threads never hold more tokens than the server has, and a
    /// holder that panics still returns its token.
    #[test]
    fn tokens_bound_concurrency_and_survive_panics() {
        let lib = vlib90::high_speed();
        let server = Server::new(&lib, 2).unwrap();
        let stats =
            || json::parse(&server.handle_line("{\"id\":\"s\",\"kind\":\"stats\"}")).unwrap();
        let field = |stats: &json::Value, key: &str| stats.get(key).unwrap().as_num().unwrap();
        assert_eq!(field(&stats(), "governor_capacity"), 2.0);
        assert_eq!(server.tokens.stats(), (2, 2, 0));

        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _token = server.tokens.acquire();
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        running.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "peak {peak}");
        assert_eq!(server.tokens.stats(), (2, 2, 0), "all tokens returned");

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _token = server.tokens.acquire();
            panic!("boom");
        }));
        assert!(caught.is_err());
        let after = stats();
        assert_eq!(field(&after, "governor_available"), 2.0);
        assert_eq!(field(&after, "governor_waiting"), 0.0);
    }

    /// A job that waits for a token past its deadline is answered
    /// `deadline` without running: the wait counts as queue time.
    #[test]
    fn job_queued_behind_a_held_token_past_its_deadline_does_not_run() {
        let lib = vlib90::high_speed();
        let server = Server::new(&lib, 1).unwrap();
        let request = protocol::parse_request(&format!(
            "{{\"id\":\"late\",\"kind\":\"desync\",\"deadline_ms\":20,\"verilog\":{}}}",
            json::escape(&toy_verilog("t"))
        ))
        .unwrap();
        let response = std::thread::scope(|s| {
            // The one token, held as another job's flow would hold it.
            let held = server.tokens.acquire();
            let queued = s.spawn(|| server.execute(&request, Instant::now()));
            while server.tokens.stats().2 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(40));
            drop(held);
            queued.join().unwrap()
        });
        assert!(
            response.contains("\"error_class\":\"deadline\""),
            "{response}"
        );
        assert!(response.contains("queued"), "{response}");
        let stats = json::parse(&server.handle_line("{\"id\":\"s\",\"kind\":\"stats\"}")).unwrap();
        assert_eq!(stats.get("jobs_failed").unwrap().as_num(), Some(1.0));
        assert!(
            matches!(stats.get("phase_wall_ms"), Some(json::Value::Obj(p)) if p.is_empty()),
            "no pass ran: {stats:?}"
        );
    }

    #[test]
    fn stream_serving_drains_and_answers_shutdown_last() {
        let lib = vlib90::high_speed();
        let server = Server::new(&lib, 4).unwrap();
        let input = format!(
            "{}\n{}\nnot json at all\n{}\n{{\"id\":\"bye\",\"kind\":\"shutdown\"}}\n",
            request_line("a", &toy_verilog("t1")),
            request_line("b", &toy_verilog("t2")),
            request_line("c", &toy_verilog("t1")),
        );
        let mut output: Vec<u8> = Vec::new();
        let stop = AtomicBool::new(false);
        let shut =
            serve_stream(&server, input.as_bytes(), &mut output, &stop).expect("serve I/O ok");
        assert!(shut, "shutdown request must be reported");
        assert!(stop.load(Ordering::Relaxed));

        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "4 request responses + shutdown: {text}");
        // Every id answered exactly once; shutdown is the last line.
        for id in ["\"id\":\"a\"", "\"id\":\"b\"", "\"id\":\"c\""] {
            assert_eq!(lines.iter().filter(|l| l.contains(id)).count(), 1, "{text}");
        }
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"error_kind\":\"request\""))
                .count(),
            1
        );
        assert!(
            lines.last().unwrap().contains("\"kind\":\"shutdown\""),
            "{text}"
        );
        assert!(
            lines.last().unwrap().contains("\"jobs_served\":3"),
            "{text}"
        );
        // Every response line is valid JSON.
        for l in &lines {
            json::parse(l).unwrap_or_else(|e| panic!("bad response line {l}: {e}"));
        }
    }

    #[test]
    fn unix_socket_round_trip() {
        use std::io::{BufRead, BufReader, Write};

        let lib = vlib90::high_speed();
        let server = Server::new(&lib, 4).unwrap();
        let path = std::env::temp_dir().join(format!("drd-serve-test-{}.sock", std::process::id()));
        let path2 = path.clone();

        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve_unix(&server, &path2));
            // Wait for the socket to appear.
            let mut stream = None;
            for _ in 0..200 {
                match std::os::unix::net::UnixStream::connect(&path) {
                    Ok(s) => {
                        stream = Some(s);
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            let mut stream = stream.expect("server socket never came up");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            writeln!(stream, "{}", request_line("u1", &toy_verilog("t"))).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"id\":\"u1\"") && line.contains("\"status\":\"ok\""));
            writeln!(stream, "{{\"id\":\"bye\",\"kind\":\"shutdown\"}}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"kind\":\"shutdown\""), "{line}");
            handle.join().unwrap().expect("socket server exits cleanly");
        });
        assert!(!path.exists(), "socket file removed on exit");
    }
}
