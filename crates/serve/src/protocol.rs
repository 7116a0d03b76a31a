//! The serve wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! One request per line, one response line per request, matched by the
//! caller-chosen `id` (responses may interleave across concurrent jobs,
//! so the `id` is the only ordering contract). Three request kinds:
//!
//! ```json
//! {"id":"j1","kind":"desync","verilog":"module t; ... endmodule\n",
//!  "deadline_ms":60000,
//!  "options":{"strict":false,"period_ns":2.4,"false_paths":["scan_en"]}}
//! {"id":"s1","kind":"stats"}
//! {"id":"bye","kind":"shutdown"}
//! ```
//!
//! A `desync` response carries the full artifact set — report, SDC,
//! Verilog and the deterministic flow trace — so a cache hit can answer
//! byte-identically to the cold run that populated it. Every artifact is
//! a JSON *string* (the trace is itself JSON text, escaped, because a
//! raw multi-line embed would break the one-line-per-response contract):
//!
//! ```json
//! {"id":"j1","status":"ok","exit_code":0,"cached":false,
//!  "netlist_hash":"<32 hex>","report":"...","sdc":"...","verilog":"...",
//!  "trace":"..."}
//! ```
//!
//! Failures answer with `status:"error"` and the CLI exit-code taxonomy
//! (`1` bad request, `2` netlist parse error, `3` flow error) plus an
//! `error_class` naming the [`DesyncError`] variant for flow errors:
//!
//! ```json
//! {"id":"j1","status":"error","error_kind":"flow","error_class":"liveness",
//!  "exit_code":3,"message":"liveness guard failed for region `r0`: ..."}
//! ```
//!
//! Unknown request kinds, unknown option keys and malformed JSON are all
//! `error_kind:"request"` responses — the server never dies on bad
//! input, it answers and moves on.

use drd_core::{DesyncError, DesyncOptions};

use crate::json::{self, Value};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run the desynchronization flow on an in-line Verilog netlist.
    Desync(DesyncJob),
    /// Report server counters (jobs, cache, queue, per-phase wall times).
    Stats {
        /// Echoed request id.
        id: String,
    },
    /// Stop accepting requests, drain in-flight jobs, then answer.
    Shutdown {
        /// Echoed request id.
        id: String,
    },
}

/// A `desync` job: the netlist source plus the flow options.
#[derive(Debug, Clone, PartialEq)]
pub struct DesyncJob {
    /// Caller-chosen id echoed on the response line.
    pub id: String,
    /// Gate-level Verilog source, inline. The raw bytes are the cache
    /// key's netlist half — hashed before parsing, so warm hits skip the
    /// parser entirely.
    pub verilog: String,
    /// Wall-clock budget for the job. Enforced twice: a job still queued
    /// past its deadline is answered without running, and the remaining
    /// budget is handed to the flow's per-pass deadline guard.
    pub deadline_ms: Option<u64>,
    /// Flow options (canonicalized into the cache key).
    pub options: DesyncOptions,
}

/// A request that could not be accepted. Carries the `id` when one was
/// recoverable from the line, so the error response still correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// Echoed id, empty when the line was too broken to recover one.
    pub id: String,
    /// What was wrong.
    pub message: String,
}

/// Parses one request line.
///
/// # Errors
/// [`RequestError`] on malformed JSON, an unknown `kind`, a missing
/// required field, or an unrecognized option key (typos must fail loudly
/// — a silently-ignored option would desynchronize with the wrong
/// parameters and poison the cache key space).
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value = json::parse(line).map_err(|message| RequestError {
        id: recover_id(line),
        message: format!("malformed request JSON: {message}"),
    })?;
    let id = value
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned();
    let fail = |message: String| RequestError {
        id: id.clone(),
        message,
    };
    let Value::Obj(members) = &value else {
        return Err(fail("request must be a JSON object".to_owned()));
    };
    for (key, _) in members {
        if !matches!(
            key.as_str(),
            "id" | "kind" | "verilog" | "deadline_ms" | "options"
        ) {
            return Err(fail(format!("unknown request field `{key}`")));
        }
    }
    let kind = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("missing `kind` (desync | stats | shutdown)".to_owned()))?;
    match kind {
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "desync" => {
            let verilog = value
                .get("verilog")
                .and_then(Value::as_str)
                .ok_or_else(|| fail("desync request needs a `verilog` string".to_owned()))?
                .to_owned();
            let deadline_ms = match value.get("deadline_ms") {
                None => None,
                Some(v) => Some(parse_count(v).map_err(|m| fail(format!("deadline_ms: {m}")))?),
            };
            if deadline_ms == Some(0) {
                return Err(fail("deadline_ms must be positive".to_owned()));
            }
            let options = match value.get("options") {
                None => DesyncOptions::default(),
                Some(raw) => parse_options(raw).map_err(&fail)?,
            };
            Ok(Request::Desync(DesyncJob {
                id,
                verilog,
                deadline_ms,
                options,
            }))
        }
        other => Err(fail(format!("unknown request kind `{other}`"))),
    }
}

/// Best-effort id extraction from a line that failed JSON parsing, so
/// the error response can still be correlated. Looks for a well-formed
/// `"id":"..."` member textually.
fn recover_id(line: &str) -> String {
    let Some(at) = line.find("\"id\"") else {
        return String::new();
    };
    let rest = line[at + 4..].trim_start();
    let Some(rest) = rest.strip_prefix(':') else {
        return String::new();
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('"') else {
        return String::new();
    };
    // Only escape-free ids are recoverable — good enough for diagnostics.
    match rest.split_once('"') {
        Some((id, _)) if !id.contains('\\') => id.to_owned(),
        _ => String::new(),
    }
}

fn parse_count(v: &Value) -> Result<u64, String> {
    let n = v.as_num().ok_or("expected a number")?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!("expected a non-negative integer, found {n}"));
    }
    Ok(n as u64)
}

/// Builds [`DesyncOptions`] from the request's `options` object. Every
/// key is optional; unknown keys are rejected.
fn parse_options(raw: &Value) -> Result<DesyncOptions, String> {
    let Value::Obj(members) = raw else {
        return Err("`options` must be an object".to_owned());
    };
    let mut opts = DesyncOptions::default();
    for (key, v) in members {
        let expect_bool = || {
            v.as_bool()
                .ok_or(format!("option `{key}` expects a boolean"))
        };
        let expect_num = || v.as_num().ok_or(format!("option `{key}` expects a number"));
        let expect_count = || parse_count(v).map_err(|m| format!("option `{key}`: {m}"));
        match key.as_str() {
            "single_group" => opts.grouping.single_group = expect_bool()?,
            "bus_grouping" => opts.grouping.bus_grouping = expect_bool()?,
            "false_paths" => {
                let items = v.as_arr().ok_or("option `false_paths` expects an array")?;
                for item in items {
                    let net = item
                        .as_str()
                        .ok_or("option `false_paths` expects an array of strings")?;
                    opts.grouping.false_path_nets.push(net.to_owned());
                }
            }
            "clean_logic" => opts.clean_logic = expect_bool()?,
            "muxed" => opts.muxed_delay_elements = expect_bool()?,
            "strict" => opts.strict = expect_bool()?,
            "margin" => opts.delay_margin = expect_num()?,
            "clock" => {
                opts.clock_port = Some(
                    v.as_str()
                        .ok_or("option `clock` expects a string")?
                        .to_owned(),
                );
            }
            "period_ns" => opts.clock_period_ns = expect_num()?,
            "max_cells" => opts.max_cells = Some(expect_count()? as usize),
            "max_nets" => opts.max_nets = Some(expect_count()? as usize),
            "pass_deadline_ms" => opts.pass_deadline_ms = Some(expect_count()?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// The stable kebab-case class name of a [`DesyncError`] variant, for
/// the `error_class` response field.
pub fn error_class(e: &DesyncError) -> &'static str {
    match e {
        DesyncError::UnknownCell { .. } => "unknown-cell",
        DesyncError::Clock { .. } => "clock",
        DesyncError::Library(_) => "library",
        DesyncError::Netlist(_) => "netlist",
        DesyncError::Sta(_) => "sta",
        DesyncError::NoRule { .. } => "no-rule",
        DesyncError::Pipeline { .. } => "pipeline",
        DesyncError::Budget { .. } => "budget",
        DesyncError::Deadline { .. } => "deadline",
        DesyncError::Panic { .. } => "panic",
        DesyncError::Liveness { .. } => "liveness",
    }
}

/// Renders a `status:"error"` response line (no trailing newline).
/// `error_kind` is `request` (exit 1), `parse` (exit 2) or `flow`
/// (exit 3); `error_class` refines flow errors and is omitted when
/// empty.
pub fn error_response(id: &str, error_kind: &str, class: &str, message: &str) -> String {
    let exit_code = match error_kind {
        "request" => 1,
        "parse" => 2,
        _ => 3,
    };
    let mut out = String::with_capacity(message.len() + 96);
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"error\",\"error_kind\":\"");
    out.push_str(error_kind);
    out.push('"');
    if !class.is_empty() {
        out.push_str(",\"error_class\":\"");
        out.push_str(class);
        out.push('"');
    }
    out.push_str(&format!(",\"exit_code\":{exit_code},\"message\":"));
    json::escape_into(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desync_request_parses_with_full_options() {
        let req = parse_request(
            r#"{"id":"j7","kind":"desync","verilog":"module t; endmodule","deadline_ms":500,
                "options":{"single_group":true,"muxed":true,"strict":true,"margin":1.2,
                           "clock":"ck","period_ns":3.5,"false_paths":["b","a"],
                           "max_cells":1000,"pass_deadline_ms":250}}"#,
        )
        .unwrap();
        let Request::Desync(job) = req else {
            panic!("expected desync")
        };
        assert_eq!(job.id, "j7");
        assert_eq!(job.deadline_ms, Some(500));
        assert!(job.options.grouping.single_group);
        assert!(job.options.muxed_delay_elements && job.options.strict);
        assert_eq!(job.options.delay_margin, 1.2);
        assert_eq!(job.options.clock_port.as_deref(), Some("ck"));
        assert_eq!(job.options.clock_period_ns, 3.5);
        assert_eq!(job.options.grouping.false_path_nets, vec!["b", "a"]);
        assert_eq!(job.options.max_cells, Some(1000));
        assert_eq!(job.options.pass_deadline_ms, Some(250));
    }

    #[test]
    fn stats_and_shutdown_parse() {
        assert_eq!(
            parse_request(r#"{"id":"s","kind":"stats"}"#).unwrap(),
            Request::Stats { id: "s".to_owned() }
        );
        assert_eq!(
            parse_request(r#"{"kind":"shutdown"}"#).unwrap(),
            Request::Shutdown { id: String::new() }
        );
    }

    #[test]
    fn bad_requests_are_rejected_with_the_id_when_recoverable() {
        let e = parse_request(r#"{"id":"j1","kind":"desync"}"#).unwrap_err();
        assert_eq!(e.id, "j1");
        assert!(e.message.contains("verilog"), "{}", e.message);

        // A typo and the retired keys are rejected alike.
        for key in ["jbos", "stg_state_limit", "jobs"] {
            let line =
                format!(r#"{{"id":"j2","kind":"desync","verilog":"m","options":{{"{key}":1}}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert!(
                e.message.contains(&format!("unknown option `{key}`")),
                "{}",
                e.message
            );
        }

        let e = parse_request(r#"{"id":"j3","kind":"frobnicate"}"#).unwrap_err();
        assert!(e.message.contains("unknown request kind"), "{}", e.message);

        // Truncated JSON: the id still comes back via textual recovery.
        let e = parse_request(r#"{"id":"j4","kind":"desync","verilog":"#).unwrap_err();
        assert_eq!(e.id, "j4");
        assert!(
            e.message.contains("malformed request JSON"),
            "{}",
            e.message
        );
    }

    #[test]
    fn zero_deadline_is_a_request_error() {
        let e = parse_request(r#"{"id":"z","kind":"desync","verilog":"m","deadline_ms":0}"#)
            .unwrap_err();
        assert!(e.message.contains("positive"), "{}", e.message);
    }

    #[test]
    fn error_responses_carry_the_exit_code_taxonomy() {
        let line = error_response("j1", "request", "", "bad");
        assert!(line.contains("\"exit_code\":1"), "{line}");
        let line = error_response("j1", "parse", "", "bad verilog");
        assert!(line.contains("\"exit_code\":2"), "{line}");
        let line = error_response("j1", "flow", "liveness", "wedged");
        assert!(line.contains("\"exit_code\":3") && line.contains("\"error_class\":\"liveness\""));
    }
}
