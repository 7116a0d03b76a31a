//! Child processes of the program under test: spawn, reap with the
//! child's own resource usage, and `/proc` sampling for the long-lived
//! server. Linux only.

use std::io::{self, Read};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals, then `ru_maxrss` (KiB)
/// and thirteen more `long` counters this bench does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// How one reaped child ended and what it cost.
pub struct Reaped {
    /// Exit code, `None` when a signal ended it.
    pub code: Option<i32>,
    /// User plus system CPU time (s).
    pub cpu_s: f64,
    /// Peak resident set size (MB).
    pub maxrss_mb: f64,
}

/// Waits for `child` and returns its own resource usage (not the
/// cumulative `RUSAGE_CHILDREN`, which would also count whatever this
/// process's parent left behind).
pub fn reap(child: Child) -> io::Result<Reaped> {
    let pid = c_int::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals whose
        // layouts match what wait4(2) writes on 64-bit Linux; `pid` is
        // this process's own unreaped child, so no other waiter races
        // for it.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // Reaped above: dropping the handle only closes its pipes.
    drop(child);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Reaped {
        code,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        maxrss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// One finished one-shot invocation.
pub struct Invocation {
    pub reaped: Reaped,
    /// Spawn to exit, outputs on disk (s).
    pub wall_s: f64,
    pub stdout: Vec<u8>,
}

impl Invocation {
    pub fn ok(&self) -> bool {
        self.reaped.code == Some(0)
    }
}

/// `e2e measure PROGRAM ARGS…`: runs PROGRAM once on this process's
/// stdin and stdout, with its stderr discarded, and prints `<exit code or
/// -1> <wall s> <cpu s> <peak RSS MB>` as the last line of this
/// process's stderr.
///
/// Why a process of its own: Linux keeps, in the `ru_maxrss` that
/// `wait4` reports for a child, the peak RSS of the address space the
/// child was spawned from. A child spawned by the benchmark itself,
/// which holds every design and reference result, would report the
/// benchmark's peak rather than its own. This freshly started process
/// is a few MB, less than the largest run of any workload.
pub fn measure(args: &[String]) -> Result<(), String> {
    let (program, rest) = args.split_first().ok_or("measure expects a program")?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(rest)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {program}: {e}"))?;
    let reaped = reap(child).map_err(|e| format!("reap {program}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    eprintln!(
        "{} {wall_s} {} {}",
        reaped.code.unwrap_or(-1),
        reaped.cpu_s,
        reaped.maxrss_mb
    );
    Ok(())
}

/// Runs `program args` to completion through `e2e measure`, with stdin
/// closed, stdout captured and stderr discarded; wall time, CPU time and
/// peak RSS are the program's own.
pub fn invoke(program: &Path, args: &[String]) -> io::Result<Invocation> {
    let mut child = Command::new(std::env::current_exe()?)
        .arg("measure")
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stdout = Vec::new();
    let mut stderr = String::new();
    let read = child
        .stdout
        .take()
        .map_or(Ok(0), |mut out| out.read_to_end(&mut stdout));
    let read_err = child
        .stderr
        .take()
        .map_or(Ok(0), |mut err| err.read_to_string(&mut stderr));
    let shim = reap(child)?;
    read?;
    read_err?;
    let fields: Vec<f64> = stderr
        .lines()
        .last()
        .unwrap_or_default()
        .split(' ')
        .filter_map(|f| f.parse().ok())
        .collect();
    let (&[code, wall_s, cpu_s, maxrss_mb], Some(0)) = (fields.as_slice(), shim.code) else {
        return Err(io::Error::other(format!(
            "e2e measure failed ({:?}): {}",
            shim.code,
            stderr.trim_end()
        )));
    };
    Ok(Invocation {
        reaped: Reaped {
            code: (code >= 0.0).then_some(code as i32),
            cpu_s,
            maxrss_mb,
        },
        wall_s,
        stdout,
    })
}

/// Peak RSS (MB) of the live process `pid` so far, `VmHWM` in
/// `/proc/<pid>/status`: the process's own address space only, unlike
/// `ru_maxrss` (see [`measure`]).
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// User plus system CPU seconds `pid` has used so far, from
/// `/proc/<pid>/stat` (clock-tick resolution).
pub fn cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    const SC_CLK_TCK: c_int = 2;
    // SAFETY: sysconf(3) takes a plain integer and touches no memory.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    Ok((tick(11)? + tick(12)?) / hz.max(1) as f64)
}
