//! Smoke tests of the `drdesync` command-line tool.

use std::process::Command;

fn write_sample(dir: &std::path::Path) -> std::path::PathBuf {
    let module = drdesync::designs::sample::figure_2_2().unwrap();
    let mut design = drdesync::netlist::Design::new();
    design.insert(module);
    let path = dir.join("sample.v");
    std::fs::write(&path, drdesync::netlist::verilog::write_design(&design)).unwrap();
    path
}

#[test]
fn cli_desync_produces_verilog_sdc_and_blif() {
    let dir = std::env::temp_dir().join("drdesync_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    let out_v = dir.join("out.v");
    let out_sdc = dir.join("out.sdc");
    let out_blif = dir.join("out.blif");
    let status = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args([
            "desync",
            input.to_str().unwrap(),
            "-o",
            out_v.to_str().unwrap(),
            "--sdc",
            out_sdc.to_str().unwrap(),
            "--blif",
            out_blif.to_str().unwrap(),
            "--period",
            "2.4",
        ])
        .status()
        .expect("binary runs");
    assert!(status.success());
    let verilog = std::fs::read_to_string(&out_v).unwrap();
    assert!(verilog.contains("drd_ctrl_master"));
    drdesync::netlist::verilog::parse_design(&verilog).expect("output parses");
    let sdc = std::fs::read_to_string(&out_sdc).unwrap();
    assert!(sdc.contains("create_clock"));
    let blif = std::fs::read_to_string(&out_blif).unwrap();
    assert!(blif.starts_with(".model"));
}

#[test]
fn cli_regions_and_gatefile() {
    let dir = std::env::temp_dir().join("drdesync_cli_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["regions", input.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sequential"), "{text}");

    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["gatefile", "--lib", "ll"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replace DFFX1 -> LDX1+LDX1"), "{text}");
}

#[test]
fn cli_trace_stop_after_and_dump_after() {
    let dir = std::env::temp_dir().join("drdesync_cli_test3");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    let out_v = dir.join("partial.v");
    let trace = dir.join("trace.json");
    let dump = dir.join("after_group.v");
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args([
            "desync",
            input.to_str().unwrap(),
            "-o",
            out_v.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--stop-after",
            "ddg",
            "--dump-after",
            &format!("group={}", dump.display()),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stopped after pass `ddg`"), "{stderr}");

    // The trace lists exactly the executed prefix of the pipeline.
    let json = std::fs::read_to_string(&trace).unwrap();
    for pass in ["clean", "clock-id", "group", "ddg"] {
        assert!(json.contains(&format!("\"name\": \"{pass}\"")), "{json}");
    }
    assert!(!json.contains("\"name\": \"sdc\""), "{json}");

    // The checkpoint and the partial output are both parseable Verilog
    // and still synchronous (no control network inserted yet).
    for path in [&dump, &out_v] {
        let v = std::fs::read_to_string(path).unwrap();
        drdesync::netlist::verilog::parse_design(&v).expect("checkpoint parses");
        assert!(!v.contains("drd_ctrl_master"), "{v}");
    }

    // Pass names are checked before any flow work: an unknown name is a
    // usage error for both flags, and no trace is written.
    let bogus_trace = dir.join("bogus_trace.json");
    for flag in ["--stop-after", "--dump-after"] {
        let _ = std::fs::remove_file(&bogus_trace);
        let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args(["desync", input.to_str().unwrap(), flag, "bogus"])
            .args(["--trace", bogus_trace.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{flag} bogus: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown pass `bogus`"), "{stderr}");
        assert!(!bogus_trace.exists(), "{flag} bogus ran the flow");
    }

    // A checkpoint after the stop could never be written: a usage error
    // naming both passes, and no checkpoint file.
    let late = dir.join("after_ddg.v");
    let _ = std::fs::remove_file(&late);
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["desync", input.to_str().unwrap(), "--stop-after", "group"])
        .args(["--dump-after", &format!("ddg={}", late.display())])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`ddg`") && stderr.contains("`group`"),
        "{stderr}"
    );
    assert!(!late.exists(), "checkpoint after the stop was written");
}

#[test]
fn cli_simulate_reports_cycle_times_and_is_worker_stable() {
    let dir = std::env::temp_dir().join("drdesync_cli_sim");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    let run = |jobs: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args([
                "simulate",
                input.to_str().unwrap(),
                "--seeds",
                "64",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let serial = run("1");
    assert!(serial.contains("matched floor"), "{serial}");
    assert!(serial.contains("nominal effective period:"), "{serial}");
    assert!(serial.contains("sync worst-case period:"), "{serial}");
    // stdout carries only data, so it must be byte-identical whatever
    // the worker count.
    assert_eq!(serial, run("4"));

    // `--seeds 0` skips the campaign but still measures nominal timing.
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["simulate", input.to_str().unwrap(), "--seeds", "0"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nominal effective period:"), "{text}");
    assert!(!text.contains("monte carlo"), "{text}");

    // A malformed campaign seed is a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["simulate", input.to_str().unwrap(), "--seed", "zz"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// A sigma that is NaN, infinite or negative is a usage error naming the
/// flag and the value, before any chip is drawn: NaN used to panic a
/// worker in the corner interpolation, infinity ran into the event cap,
/// and a negative spread was accepted.
#[test]
fn cli_simulate_rejects_a_sigma_that_is_not_finite_and_non_negative() {
    let dir = std::env::temp_dir().join("drdesync_cli_sigma");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    for sigma in ["nan", "inf", "-0.5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args([
                "simulate",
                input.to_str().unwrap(),
                "--seeds",
                "4",
                "--sigma",
                sigma,
            ])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "--sigma {sigma}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--sigma") && stderr.contains(&format!("`{sigma}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "--sigma {sigma}: {out:?}");
    }
}

#[test]
fn cli_rejects_unknown_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
}

/// Two-region netlist whose second region's flip-flop flavour can be
/// declared unsupported via `--keep-sync-ff DFFRX1`.
fn write_mixed(dir: &std::path::Path) -> std::path::PathBuf {
    let src = "
        module mix (clk, out0, out1);
          input clk; output out0; output out1;
          wire d0; wire d1;
          INVX1 inv0 (.A(out0), .Z(d0));
          DFFX1 r0 (.D(d0), .CK(clk), .Q(out0));
          INVX1 inv1 (.A(out0), .Z(d1));
          DFFRX1 r1 (.D(d1), .RN(1'b1), .CK(clk), .Q(out1));
        endmodule";
    let path = dir.join("mix.v");
    std::fs::write(&path, src).unwrap();
    path
}

#[test]
fn cli_parse_error_exits_2() {
    let dir = std::env::temp_dir().join("drdesync_cli_exit2");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("garbage.v");
    std::fs::write(&input, "module broken (a;\n???\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["desync", input.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn cli_flow_error_exits_3() {
    let dir = std::env::temp_dir().join("drdesync_cli_exit3");
    std::fs::create_dir_all(&dir).unwrap();
    // Parses fine but has no clocked flip-flop: the flow cannot identify
    // a clock and fails.
    let input = dir.join("clockless.v");
    std::fs::write(
        &input,
        "module clockless (input a, output z);\n  INVX1 u (.A(a), .Z(z));\nendmodule",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["desync", input.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
}

/// A combinational loop survives into timing analysis: NAND `u0` is fed
/// back to its `B` input through an inverter pair, which cleaning removes,
/// leaving `u0/Z -> u0/B`. The flow fails with the STA cycle error naming
/// the first node on the loop.
#[test]
fn cli_combinational_loop_is_a_timing_error() {
    let dir = std::env::temp_dir().join("drdesync_cli_loop");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("loop.v");
    std::fs::write(
        &input,
        "module looped (input clk, input a, output q);\n\
         \x20 wire n, f1, f2;\n\
         \x20 NAND2X1 u0 (.A(a), .B(f2), .Z(n));\n\
         \x20 INVX1 i1 (.A(n), .Z(f1));\n\
         \x20 INVX1 i2 (.A(f1), .Z(f2));\n\
         \x20 DFFX1 r0 (.D(n), .CK(clk), .Q(q));\n\
         endmodule\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["desync", input.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.lines().any(|l| {
            l
            == "error: timing analysis failed: timing graph contains an unbroken cycle through u0/B"
        }),
        "{stderr}"
    );
}

#[test]
fn cli_degraded_flow_exits_0_with_warning() {
    let dir = std::env::temp_dir().join("drdesync_cli_degraded");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_mixed(&dir);
    let out_v = dir.join("out.v");
    let out_sdc = dir.join("out.sdc");
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args([
            "desync",
            input.to_str().unwrap(),
            "-o",
            out_v.to_str().unwrap(),
            "--sdc",
            out_sdc.to_str().unwrap(),
            "--keep-sync-ff",
            "DFFRX1",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: 1 region(s) left synchronous"),
        "{stderr}"
    );
    assert!(stderr.contains("DFFRX1"), "{stderr}");
    // The degraded region keeps its flip-flop; the SDC declares the CDC.
    let verilog = std::fs::read_to_string(&out_v).unwrap();
    assert!(verilog.contains("DFFRX1"), "{verilog}");
    let sdc = std::fs::read_to_string(&out_sdc).unwrap();
    assert!(sdc.contains("set_clock_groups -asynchronous"), "{sdc}");
}

#[test]
fn cli_strict_turns_degradation_into_flow_error() {
    let dir = std::env::temp_dir().join("drdesync_cli_strict");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_mixed(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args([
            "desync",
            input.to_str().unwrap(),
            "--keep-sync-ff",
            "DFFRX1",
            "--strict",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DFFRX1"), "{stderr}");
}

#[test]
fn cli_jobs_zero_is_rejected_before_any_flow_runs() {
    // `--jobs 0` used to flow through `parsed_flag` into a zero-worker
    // pool; it must be rejected up front with exit 2 and a usage-style
    // message, uniformly across the commands that take --jobs.
    let dir = std::env::temp_dir().join("drdesync_cli_jobs0");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    let invocations: [&[&str]; 3] = [
        &["desync", input.to_str().unwrap(), "--jobs", "0"],
        &[
            "simulate",
            input.to_str().unwrap(),
            "--seeds",
            "1",
            "--jobs",
            "0",
        ],
        &["serve", "--stdio", "--jobs", "0"],
    ];
    for args in invocations {
        let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--jobs must be at least 1"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("omit --jobs"), "{args:?}: {stderr}");
    }
    // `--jobs 1` stays valid.
    let status = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args([
            "desync",
            input.to_str().unwrap(),
            "-o",
            dir.join("j1.v").to_str().unwrap(),
        ])
        .args(["--jobs", "1"])
        .status()
        .expect("binary runs");
    assert!(status.success());
}

/// Where `--jobs` is left out, `simulate` and `serve` take their worker
/// count from `DRD_WORKERS`: one that is not a number is rejected before
/// any work, with exit 2 and a message naming it, as `--jobs 0` is, not
/// with a panic (exit 101). `desync`, whose flow runs serially, never
/// reads it.
#[test]
fn cli_malformed_drd_workers_is_rejected_where_it_is_read() {
    let dir = std::env::temp_dir().join("drdesync_cli_drd_workers");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args(args)
            .env("DRD_WORKERS", "abc")
            .stdin(std::process::Stdio::null())
            .output()
            .expect("binary runs")
    };
    let invocations: [&[&str]; 2] = [
        &["simulate", input.to_str().unwrap(), "--seeds", "4"],
        &["serve", "--stdio"],
    ];
    for args in invocations {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("DRD_WORKERS=abc is not a number"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // `--jobs` overrides the variable, so it is not read at all.
    let out = run(&[
        "simulate",
        input.to_str().unwrap(),
        "--seeds",
        "4",
        "--jobs",
        "1",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&[
        "desync",
        input.to_str().unwrap(),
        "-o",
        dir.join("out.v").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn cli_serve_stdio_answers_jobs_stats_and_shutdown() {
    use std::io::Write;

    let dir = std::env::temp_dir().join("drdesync_cli_serve");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    let verilog = std::fs::read_to_string(&input).unwrap();
    let escaped: String = verilog
        .chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect();

    let mut child = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["serve", "--stdio"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    // One request at a time, so the second identical job deterministically
    // hits the cache (two *concurrent* identical jobs would both miss).
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut ask = move |request: &str| -> String {
        use std::io::BufRead;
        writeln!(stdin, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    let cold = ask(&format!(
        "{{\"id\":\"a\",\"kind\":\"desync\",\"verilog\":\"{escaped}\"}}"
    ));
    assert!(
        cold.contains("\"id\":\"a\"") && cold.contains("\"cached\":false"),
        "{cold}"
    );
    let warm = ask(&format!(
        "{{\"id\":\"b\",\"kind\":\"desync\",\"verilog\":\"{escaped}\"}}"
    ));
    assert!(
        warm.contains("\"id\":\"b\"") && warm.contains("\"cached\":true"),
        "{warm}"
    );
    let bad = ask("this is not json");
    assert!(
        bad.contains("\"error_kind\":\"request\"") && bad.contains("\"exit_code\":1"),
        "malformed line must be answered, not fatal: {bad}"
    );
    let stats = ask("{\"id\":\"s\",\"kind\":\"stats\"}");
    assert!(stats.contains("\"kind\":\"stats\""), "{stats}");
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");
    let bye = ask("{\"id\":\"bye\",\"kind\":\"shutdown\"}");
    assert!(bye.contains("\"kind\":\"shutdown\""), "{bye}");
    assert!(bye.contains("\"jobs_served\":2"), "{bye}");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "{status:?}");
}

#[test]
fn cli_budget_flags_abort_with_flow_error() {
    let dir = std::env::temp_dir().join("drdesync_cli_budget");
    std::fs::create_dir_all(&dir).unwrap();
    let input = write_sample(&dir);
    let trace = dir.join("trace.json");
    // A failed flow still writes its trace, naming the failing pass, and
    // the trace stays valid JSON whatever bytes the error message carries.
    let hostile_clock = "ck\u{1}\"x";
    for (flags, pass, message) in [
        (["--max-cells", "1"], "clean", "cells budget"),
        (["--clock", hostile_clock], "clock-id", hostile_clock),
    ] {
        let _ = std::fs::remove_file(&trace);
        let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args(["desync", input.to_str().unwrap()])
            .args(flags)
            .args(["--trace", trace.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(3), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{stderr}");
        let json = std::fs::read_to_string(&trace).expect("trace written on failure");
        let doc = drd_serve::json::parse(&json).expect("trace parses");
        let error = doc.get("error").expect("trace has an error section");
        assert_eq!(
            error.get("pass").and_then(|p| p.as_str()),
            Some(pass),
            "{json}"
        );
        let text = error
            .get("message")
            .and_then(|m| m.as_str())
            .unwrap_or_default();
        assert!(text.contains(message), "{json}");
    }

    // A malformed budget value is a usage error, not a flow error.
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args(["desync", input.to_str().unwrap(), "--max-cells", "many"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// Two regions: a source behind a `levels`-NAND chain (a long matched
/// delay) feeding a one-inverter successor (a fast acknowledge), so the
/// liveness guard has a pulse-swallowing hazard to repair.
fn write_imbalanced(dir: &std::path::Path, levels: usize) -> std::path::PathBuf {
    let mut src =
        String::from("module chain (clk, din, q0, q1);\n  input clk, din; output q0, q1;\n");
    let mut prev = "din".to_owned();
    for c in 0..levels {
        src.push_str(&format!(
            "  NAND2X1 g{c} (.A({prev}), .B(din), .Z(c{c}));\n"
        ));
        prev = format!("c{c}");
    }
    src.push_str(&format!("  DFFX1 r0 (.D({prev}), .CK(clk), .Q(q0));\n"));
    src.push_str(
        "  INVX1 i1 (.A(q0), .Z(n1));\n  DFFX1 r1 (.D(n1), .CK(clk), .Q(q1));\nendmodule\n",
    );
    let path = dir.join(format!("chain{levels}.v"));
    std::fs::write(&path, src).unwrap();
    path
}

/// The whole summary `desync` prints on stderr, byte for byte: the clock
/// line, the liveness repairs, the degraded regions and one line per
/// region.
#[test]
fn cli_desync_summary_is_pinned() {
    let dir = std::env::temp_dir().join("drdesync_cli_summary");
    std::fs::create_dir_all(&dir).unwrap();
    let out_v = dir.join("out.v");
    let repaired = write_imbalanced(&dir, 24);
    let mixed = write_mixed(&dir);
    for (input, extra, expected) in [
        (
            &repaired,
            &[][..],
            "desynchronized: clock `clk`, 2 regions, 2 flip-flops substituted, 4 controllers, 0 C-elements\n\
             warning: liveness guard repaired 1 pulse-swallowing hazard record(s):\n\
             \x20 region `g1`: request rise 0.611 ns vs successor response 0.205 ns — deepened `g2`'s delay element 2 → 16 levels\n\
             \x20 g1: 25 cells, 1 ffs, cloud 0.535 ns, delay element 17 levels\n\
             \x20 g2: 2 cells, 1 ffs, cloud 0.066 ns, delay element 16 levels\n",
        ),
        (
            &mixed,
            &["--keep-sync-ff", "DFFRX1"][..],
            "desynchronized: clock `clk`, 2 regions, 1 flip-flops substituted, 2 controllers, 0 C-elements\n\
             warning: 1 region(s) left synchronous (run with --strict to fail instead):\n\
             \x20 region `g2` left synchronous: unsupported flip-flop `DFFRX1` (no gatefile rule) (1 cell)\n\
             \x20 g1: 2 cells, 1 ffs, cloud 0.066 ns, delay element 2 levels\n\
             \x20 g2: 2 cells, 1 ffs, cloud 0.066 ns, delay element 0 levels\n",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args(["desync", input.to_str().unwrap(), "-o", out_v.to_str().unwrap()])
            .args(extra)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), expected);
        assert!(out.stdout.is_empty(), "{out:?}");
    }
}

/// Two flip-flops joined by an inverter pair whose middle wire is named
/// `mid`; cleaning removes the pair, and the wire's name stays taken.
fn write_named_pair(dir: &std::path::Path, mid: &str) -> std::path::PathBuf {
    let src = format!(
        "module pair (clk, din, q0, q1);\n  input clk, din; output q0, q1;\n  wire {mid}, n1;\n\
         \x20 DFFX1 r0 (.D(din), .CK(clk), .Q(q0));\n\
         \x20 INVX1 i0 (.A(q0), .Z({mid}));\n  INVX1 i1 (.A({mid}), .Z(n1));\n\
         \x20 DFFX1 r1 (.D(n1), .CK(clk), .Q(q1));\nendmodule\n"
    );
    let path = dir.join(format!("pair_{mid}.v"));
    std::fs::write(&path, src).unwrap();
    path
}

/// A user wire named like a generated enable net is legal input: the run
/// completes with the same report as its twin whose wire is named
/// otherwise.
#[test]
fn cli_user_net_named_like_an_enable_net_desynchronizes() {
    let dir = std::env::temp_dir().join("drdesync_cli_collision");
    std::fs::create_dir_all(&dir).unwrap();
    let report = |mid: &str| {
        let input = write_named_pair(&dir, mid);
        let (out_v, rep) = (
            dir.join(format!("{mid}.v.out")),
            dir.join(format!("{mid}.report")),
        );
        let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args([
                "desync",
                input.to_str().unwrap(),
                "-o",
                out_v.to_str().unwrap(),
            ])
            .args(["--report", rep.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{mid}: {out:?}");
        std::fs::read_to_string(rep).unwrap()
    };
    let (user, twin) = (report("drd_g1_gm"), report("mid"));
    assert!(twin.contains("name: \"g1\""), "{twin}");
    assert_eq!(user, twin);
}

/// The `liveness …` lines of `simulate --seeds 0 --check-liveness` on
/// `input`, which must exit with `code`.
fn liveness_lines(input: &std::path::Path, code: i32) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_drdesync"))
        .args([
            "simulate",
            input.to_str().unwrap(),
            "--seeds",
            "0",
            "--check-liveness",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(code), "{out:?}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("liveness "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The whole `--check-liveness` block, byte for byte, on a source the
/// guard deepens (24 NANDs: `g2` 2 → 16) and on one it latches (6 NANDs:
/// the deepen still leaves a hazard, so the loopback is latched).
#[test]
fn cli_check_liveness_block_is_pinned() {
    let dir = std::env::temp_dir().join("drdesync_cli_liveness");
    std::fs::create_dir_all(&dir).unwrap();
    let deepened = liveness_lines(&write_imbalanced(&dir, 24), 0);
    assert_eq!(
        deepened,
        "liveness g1: source — rise 0.611 ns vs successor response 0.679 ns: rise inside the response window\n\
         liveness g2: interior — requests held by C-element joins, no pulse hazard\n\
         liveness repair: region `g1`: request rise 0.611 ns vs successor response 0.205 ns — deepened `g2`'s delay element 2 → 16 levels\n"
    );
    let latched = liveness_lines(&write_imbalanced(&dir, 6), 0);
    assert_eq!(
        latched,
        "liveness g1: source — rise 0.216 ns vs successor response 0.239 ns: request latch holds the loopback\n\
         liveness g2: interior — requests held by C-element joins, no pulse hazard\n\
         liveness repair: region `g1`: request rise 0.216 ns vs successor response 0.205 ns — deepened `g2`'s delay element 2 → 3 levels\n\
         liveness repair: region `g1`: request rise 0.216 ns vs successor response 0.239 ns — request-extending latch inserted on the loopback\n"
    );
}

/// A controlled region with no controlled neighbour has no C-element
/// join, and the liveness guard does not screen it: its verdict says so
/// rather than calling it interior. One register behind an inverter
/// free-runs; seed 430's default netgen draw wedges in simulation (the
/// verdict is what is pinned here, not the deadlock).
#[test]
fn cli_check_liveness_names_isolated_regions() {
    use drd_check::netgen::{NetGenParams, NetRecipe};
    let dir = std::env::temp_dir().join("drdesync_cli_isolated");
    std::fs::create_dir_all(&dir).unwrap();
    let isolated = |region: &str| {
        format!(
            "liveness {region}: isolated — no controlled predecessor or successor, \
             not screened by the liveness guard\n"
        )
    };
    let one = dir.join("one_register.v");
    std::fs::write(
        &one,
        "module one (clk, din, dout);\n  input clk, din; output dout;\n\
         \x20 INVX1 i0 (.A(din), .Z(n0));\n  DFFX1 r0 (.D(n0), .CK(clk), .Q(dout));\nendmodule\n",
    )
    .unwrap();
    assert_eq!(liveness_lines(&one, 0), isolated("g1"));
    let recipe = NetRecipe::sample(
        &mut drd_check::Rng::new(0xC311_0DE4 ^ 430),
        &NetGenParams::default(),
    );
    let seed_430 = dir.join("seed_430.v");
    std::fs::write(&seed_430, recipe.verilog()).unwrap();
    assert_eq!(liveness_lines(&seed_430, 3), isolated("g1"));
}

/// Each command takes only its own flags, and `simulate` reads the flow
/// flags as `desync` does: an unknown flag and a malformed `--period`
/// are usage errors in both, and `simulate` on ARM-small with
/// `--lib ll --single-group --false-path scan_en` screens exactly the
/// regions `desync` ships with the same flags.
#[test]
fn cli_flags_are_checked_and_shared_by_desync_and_simulate() {
    let dir = std::env::temp_dir().join("drdesync_cli_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let sample = write_sample(&dir);
    let out_v = dir.join("out.v");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_drdesync"))
            .args(args)
            .output()
            .expect("binary runs")
    };
    let (sample, out_v) = (sample.to_str().unwrap(), out_v.to_str().unwrap());

    let out = run(&["desync", sample, "-o", out_v, "--bogus-flag"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("`--bogus-flag`"),
        "{out:?}"
    );

    for args in [
        &["desync", sample, "-o", out_v, "--period", "abc"][..],
        &["simulate", sample, "--seeds", "0", "--period", "abc"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--period"),
            "{out:?}"
        );
    }

    let arm = drdesync::flow::CaseStudy::armlike(&drdesync::designs::armlike::ArmParams::small())
        .unwrap()
        .module;
    let arm_v = dir.join("armlike_small.v");
    std::fs::write(&arm_v, drdesync::netlist::verilog::write_module(&arm)).unwrap();
    let arm_v = arm_v.to_str().unwrap();
    let flow_flags = ["--lib", "ll", "--single-group", "--false-path", "scan_en"];
    let desync = run(&[&["desync", arm_v, "-o", out_v][..], &flow_flags].concat());
    assert_eq!(desync.status.code(), Some(0), "{desync:?}");
    let shipped: Vec<String> = String::from_utf8_lossy(&desync.stderr)
        .lines()
        .filter_map(|l| {
            l.strip_prefix("  ")?
                .split_once(": ")
                .map(|(r, _)| r.to_owned())
        })
        .filter(|r| r.starts_with('g'))
        .collect();
    let simulate = [
        &["simulate", arm_v, "--seeds", "0", "--check-liveness"][..],
        &flow_flags,
    ];
    let simulate = run(&simulate.concat());
    assert_eq!(simulate.status.code(), Some(0), "{simulate:?}");
    let screened: Vec<String> = String::from_utf8_lossy(&simulate.stdout)
        .lines()
        .filter_map(|l| {
            l.strip_prefix("liveness ")?
                .split_once(": ")
                .map(|(r, _)| r.to_owned())
        })
        .collect();
    assert_eq!(shipped, ["g1"], "{desync:?}");
    assert_eq!(screened, shipped, "{simulate:?}");
}
