//! Serve-mode throughput campaign: a fuzzed corpus of vetted netlists
//! driven through an in-process [`drd_serve::Server`] by 1, 8 and 64
//! concurrent clients, cold cache (every job runs the full flow) and
//! warm cache (every job replays a prior result). Reports jobs/sec and
//! p50/p99 response latency per configuration. Clients keep the raw
//! response lines inside the timed window and the bench parses them
//! after it, so jobs/sec measures the server, not the bench's own JSON
//! parsing.
//!
//! Emits `BENCH_serve.json`, then three gates make the campaign a
//! verification artifact; the bench exits non-zero when any fails:
//!
//! * `failed_jobs` — every response of every run must be `status:"ok"`
//!   with the expected cache disposition; anything else is a wedged or
//!   failed job.
//! * `identity_mismatches` — every warm-cache artifact (report, SDC,
//!   Verilog, trace) must be byte-identical to its cold-path original;
//!   a divergence means the cache broke the determinism contract.
//! * warm cache — a hit replays stored bytes, so the 1-client warm p50
//!   must sit at least [`WARM_SPEEDUP`]x below the cold p50 (1 client is
//!   the least scheduler-noisy configuration).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use drd_check::netgen::{NetGenParams, NetRecipe};
use drd_check::Rng;
use drd_core::{DesyncOptions, Desynchronizer};
use drd_liberty::vlib90;
use drd_serve::{json, Server};

/// Vetted netlists in the corpus.
const JOBS: usize = 96;

/// How far below the cold-path p50 the warm-cache p50 must sit.
const WARM_SPEEDUP: f64 = 10.0;

/// Seeded, in-process-vetted corpus: only netlists whose flow succeeds
/// are kept, so a non-ok response is always a server bug, never a
/// hostile input.
fn corpus() -> Vec<String> {
    let lib = vlib90::high_speed();
    let tool = Desynchronizer::new(&lib).expect("tool builds");
    let mut rng = Rng::new(0xBE7C_5E12_7E00);
    let params = NetGenParams::default();
    let mut kept = Vec::new();
    while kept.len() < JOBS {
        let recipe = NetRecipe::sample(&mut rng, &params);
        let Ok(module) = recipe.build() else { continue };
        if tool.run(module, &DesyncOptions::default()).0.is_ok() {
            kept.push(recipe.verilog());
        }
    }
    kept
}

/// The artifact triple a response carries; compared byte-for-byte
/// between cold and warm passes.
type Artifacts = (String, String, String, String);

struct RunStats {
    clients: usize,
    cache: &'static str,
    jobs_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

fn percentile_us(sorted: &[u128], pct: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (sorted.len() * pct / 100).min(sorted.len() - 1);
    sorted[idx] as f64 / 1_000.0
}

/// Drives every request through `server` with `clients` worker threads
/// pulling from a shared queue; returns latency stats and the artifact
/// triple per job index.
fn drive(
    server: &Server<'_>,
    requests: &[String],
    clients: usize,
    want_cached: bool,
    cache: &'static str,
    failed: &mut usize,
) -> (RunStats, Vec<Artifacts>) {
    let next = AtomicUsize::new(0);
    let responses: Mutex<Vec<(usize, u128, String)>> =
        Mutex::new(Vec::with_capacity(requests.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests.len() {
                    return;
                }
                let t0 = Instant::now();
                let line = server.handle_line(&requests[i]);
                let dt = t0.elapsed().as_nanos();
                responses.lock().unwrap().push((i, dt, line));
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();

    let mut res = responses.into_inner().unwrap();
    res.sort_by_key(|&(i, ..)| i);
    let mut lat: Vec<u128> = res.iter().map(|&(_, dt, _)| dt).collect();
    lat.sort_unstable();
    let mut artifacts = Vec::with_capacity(res.len());
    for (_, _, line) in &res {
        let v = json::parse(line).expect("response parses");
        let str_of = |k: &str| {
            v.get(k)
                .and_then(json::Value::as_str)
                .unwrap_or_default()
                .to_owned()
        };
        let ok = v.get("status").and_then(json::Value::as_str) == Some("ok")
            && v.get("cached").and_then(json::Value::as_bool) == Some(want_cached);
        if !ok {
            *failed += 1;
        }
        artifacts.push((
            str_of("report"),
            str_of("sdc"),
            str_of("verilog"),
            str_of("trace"),
        ));
    }
    let stats = RunStats {
        clients,
        cache,
        jobs_per_sec: requests.len() as f64 / wall.max(1e-9),
        p50_us: percentile_us(&lat, 50),
        p99_us: percentile_us(&lat, 99),
    };
    (stats, artifacts)
}

fn main() {
    let lib = vlib90::high_speed();
    let tokens = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let corpus = corpus();
    let requests: Vec<String> = corpus
        .iter()
        .enumerate()
        .map(|(i, v)| {
            format!(
                "{{\"id\":\"j{i}\",\"kind\":\"desync\",\"verilog\":{},\"options\":{{}}}}",
                json::escape(v)
            )
        })
        .collect();

    let mut failed = 0usize;
    let mut identity_mismatches = 0usize;
    let mut runs: Vec<RunStats> = Vec::new();
    let start = Instant::now();
    for &clients in &[1usize, 8, 64] {
        // Fresh server per level: the cold pass really runs the flow,
        // the warm pass replays the exact artifacts just cached.
        let server = Server::new(&lib, tokens).expect("server builds");
        let (cold, cold_art) =
            drive(&server, &requests, clients, false, "cold", &mut failed);
        let (warm, warm_art) = drive(&server, &requests, clients, true, "warm", &mut failed);
        identity_mismatches += cold_art
            .iter()
            .zip(&warm_art)
            .filter(|(c, w)| c != w)
            .count();
        eprintln!(
            "{clients:>2} client(s): cold {:8.1} jobs/s (p50 {:9.1} us, p99 {:9.1} us), \
             warm {:8.1} jobs/s (p50 {:9.1} us, p99 {:9.1} us)",
            cold.jobs_per_sec, cold.p50_us, cold.p99_us, warm.jobs_per_sec, warm.p50_us,
            warm.p99_us
        );
        runs.push(cold);
        runs.push(warm);
    }
    let wall_ns = start.elapsed().as_nanos();

    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"clients\": {}, \"cache\": \"{}\", \"jobs_per_sec\": {:.3}, \
                 \"p50_us\": {:.3}, \"p99_us\": {:.3}}}",
                r.clients, r.cache, r.jobs_per_sec, r.p50_us, r.p99_us
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"name\": \"serve\",\n  \"jobs\": {JOBS},\n  \"tokens\": {tokens},\n  \
         \"failed_jobs\": {failed},\n  \"identity_mismatches\": {identity_mismatches},\n  \
         \"campaign_wall_ns\": {wall_ns},\n  \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let mut gates = Vec::new();
    if failed > 0 {
        gates.push(format!("failed jobs: {failed} failed or wedged job(s)"));
    }
    if identity_mismatches > 0 {
        gates.push(format!(
            "identity: {identity_mismatches} cache-hit response(s) diverged from their \
             cold-path artifacts"
        ));
    }
    // The first level is 1 client: its cold row, then its warm row.
    let (cold, warm) = (&runs[0], &runs[1]);
    if warm.p50_us * WARM_SPEEDUP > cold.p50_us {
        gates.push(format!(
            "warm cache: 1-client warm p50 {:.3} us not {WARM_SPEEDUP}x below cold p50 {:.3} us",
            warm.p50_us, cold.p50_us
        ));
    }
    drd_bench::finish("serve", &out, &gates);
}
