//! Exact allocation counts of the tool's layers, gated against committed
//! ceilings.
//!
//! A counting global allocator records, for each kernel, the number of
//! allocations (`alloc`, `alloc_zeroed` and `realloc` calls) and the
//! bytes they request. The kernels: building each vlib90 variant, and
//! the parse, the nine passes as one `Pipeline::run`, the `ffsub` and
//! `control-network` passes alone (each after the passes before it ran
//! uncounted) and the write of DLX32 and ARM32, each as `drdesync
//! desync` runs it. Every kernel runs once to warm up (the first flow
//! also measures the library facts its gatefile keeps), then
//! [`COUNTED_RUNS`] times counted. The run fails when the counted runs
//! of a kernel differ, or when a count is above its ceiling in
//! [`CEILINGS`]. Unlike a time, a count does not move with the host, so
//! a ceiling can sit at the measured count: lower one to lock a gain
//! in; raising one is a bound change to record with its reason.
//!
//! This is a bench target of its own (`cargo bench -p drd-bench --bench
//! allocs`), so the counting allocator never runs under the timed
//! kernels of `benches/kernels.rs`. It writes `BENCH_allocs.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use drd_core::{Desynchronizer, FlowContext, Pipeline};
use drd_designs::armlike::ArmParams;
use drd_designs::dlx::DlxParams;
use drd_flow::CaseStudy;
use drd_liberty::vlib90;
use drd_netlist::verilog::{parse_module, write_design, write_module};

/// The system allocator, counting every allocation and the bytes it asks
/// for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and bytes requested by one kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocations: u64,
    bytes: u64,
}

/// What `f` allocates; its result is dropped after the count.
fn counted<T>(f: impl FnOnce() -> T) -> Counts {
    let (allocations, bytes) = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    let _out = std::hint::black_box(f());
    Counts {
        allocations: ALLOCATIONS.load(Relaxed) - allocations,
        bytes: BYTES.load(Relaxed) - bytes,
    }
}

/// Counted runs per kernel, after one warm-up run.
const COUNTED_RUNS: usize = 3;

/// `(kernel, allocations, bytes requested)`: the most each kernel may
/// allocate, each set at the count it was committed with.
const CEILINGS: [(&str, u64, u64); 12] = [
    ("vlib90_hs", 653, 35_861),
    ("vlib90_ll", 653, 35_861),
    ("parse_dlx32", 196, 2_967_661),
    ("flow_dlx32", 2_212, 9_987_136),
    ("ffsub_dlx32", 22, 3_292_160),
    ("control-network_dlx32", 1_423, 366_171),
    ("write_dlx32", 129, 3_919_436),
    ("parse_arm32", 224, 4_301_965),
    ("flow_arm32", 973, 12_996_450),
    ("ffsub_arm32", 22, 3_996_570),
    ("control-network_arm32", 588, 409_601),
    ("write_arm32", 69, 6_118_088),
];

/// The standard pipeline as the passes before `ffsub`, `ffsub` alone,
/// and `control-network` alone (the passes after it are left out).
fn stages() -> [Pipeline; 3] {
    let split = |p: Pipeline, after: &str| p.split_after(after).expect("a standard pass");
    let (head, tail) = split(Pipeline::standard(), "region-delays");
    let (ffsub, tail) = split(tail, "ffsub");
    let (network, _) = split(tail, "control-network");
    [head, ffsub, network]
}

fn main() {
    let mut failed = Vec::new();
    let mut rows = Vec::new();
    let mut record = |label: &str, run: &mut dyn FnMut() -> Counts| {
        run();
        let counts: Vec<Counts> = (0..COUNTED_RUNS).map(|_| run()).collect();
        let (c, repeats) = (counts[0], counts.iter().all(|&x| x == counts[0]));
        let &(_, max_allocations, max_bytes) = CEILINGS
            .iter()
            .find(|k| k.0 == label)
            .expect("every kernel has a ceiling");
        if !repeats {
            failed.push(format!("{label}: counts differ between runs: {counts:?}"));
        }
        if c.allocations > max_allocations {
            failed.push(format!(
                "{label}: {} allocations > ceiling {max_allocations}",
                c.allocations
            ));
        }
        if c.bytes > max_bytes {
            failed.push(format!(
                "{label}: {} bytes requested > ceiling {max_bytes}",
                c.bytes
            ));
        }
        eprintln!("{label}: {} allocations, {} bytes", c.allocations, c.bytes);
        rows.push(format!(
            "    {{\"label\": {}, \"allocations\": {}, \"bytes\": {}, \
             \"max_allocations\": {max_allocations}, \"max_bytes\": {max_bytes}, \
             \"repeats\": {repeats}}}",
            drd_json::escape(label),
            c.allocations,
            c.bytes
        ));
    };
    record("vlib90_hs", &mut || counted(vlib90::high_speed));
    record("vlib90_ll", &mut || counted(vlib90::low_leakage));

    let dlx = CaseStudy::dlx(&DlxParams::full()).expect("DLX32 builds");
    let arm = CaseStudy::armlike(&ArmParams::full()).expect("ARM32 builds");
    for (name, case) in [("dlx32", &dlx), ("arm32", &arm)] {
        let text = write_module(&case.module);
        record(&format!("parse_{name}"), &mut || {
            counted(|| parse_module(&text).unwrap())
        });
        let tool = Desynchronizer::new(&case.lib).unwrap();
        let opts = &case.desync;
        let pipeline = Pipeline::standard();
        let context = || {
            FlowContext::new(
                &case.lib,
                tool.gatefile(),
                case.module.clone(),
                opts.clone(),
            )
        };
        record(&format!("flow_{name}"), &mut || {
            let mut cx = context();
            counted(|| pipeline.run(&mut cx).unwrap())
        });
        let [head, ffsub, network] = stages();
        record(&format!("ffsub_{name}"), &mut || {
            let mut cx = context();
            head.run(&mut cx).unwrap();
            counted(|| ffsub.run(&mut cx).unwrap())
        });
        record(&format!("control-network_{name}"), &mut || {
            let mut cx = context();
            head.run(&mut cx).unwrap();
            ffsub.run(&mut cx).unwrap();
            counted(|| network.run(&mut cx).unwrap())
        });
        let result = tool.run(case.module.clone(), opts).0.unwrap();
        record(&format!("write_{name}"), &mut || {
            counted(|| write_design(&result.design))
        });
    }

    let json = format!(
        "{{\n  \"name\": \"allocs\",\n  \"warmup_runs\": 1,\n  \"counted_runs\": {COUNTED_RUNS},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    drd_bench::finish("allocs", &json, &failed);
}
