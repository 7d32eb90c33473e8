//! The `fpopd` line protocol: newline-delimited text over TCP, std only.
//!
//! One request per line, one response per line. Multi-line payloads
//! (vernacular sources, lattice tables) travel escaped: `\` → `\\`,
//! newline → `\n`, carriage return → `\r`.
//!
//! ```text
//! --> [high |low ]check <escaped-source>
//! --> [high |low ]lattice full|extended|Fix,Prod,...
//! --> [high |low ]redefine <family> <field> [full|extended|Fix,Prod,...]
//! --> [high |low ]theorem <family> <field>
//! --> [high |low ]eval <family> <escaped-term>
//! --> [high |low ]stats
//! --> [high |low ]metrics
//! --> slowlog
//! --> checkpoint
//! --> ping
//! --> shutdown
//! <-- ok <escaped-payload>
//! <-- err <escaped-reason>
//! ```
//!
//! The protocol is deliberately dumb: it exists so the warm-restart demo
//! and ops tooling can poke a resident engine with `nc`, not as an RPC
//! framework. Anything structured should use the library API.
//!
//! [`serve`] is the one server entry point (unix only): the event loop
//! that speaks this protocol and `fpopb/1` on one port. There is no
//! blocking fallback.

use families_stlc::Feature;

use crate::request::{EngineError, Priority, Request, Response};

/// Escapes a payload onto one protocol line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
///
/// # Errors
///
/// A human-readable message on a dangling or unknown escape.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("dangling backslash at end of line".into()),
        }
    }
    Ok(out)
}

/// A parsed protocol line.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// Submit a request at the given priority and wait for its result.
    Submit(Request, Priority),
    /// Persist the proof cache now.
    Checkpoint,
    /// Report the slow-elaboration log (served from the engine facade;
    /// never queued, so it works even when the pool is saturated).
    SlowLog,
    /// Liveness probe.
    Ping,
    /// Stop the server (the engine then drains and snapshots).
    Shutdown,
}

/// Parses one protocol line into a [`Command`].
///
/// # Errors
///
/// A human-readable message describing the malformed line.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    let (priority, rest) = match line.split_once(' ') {
        Some((tag, rest)) if Priority::from_tag(tag).is_some() => {
            (Priority::from_tag(tag).unwrap_or_default(), rest.trim())
        }
        _ => (Priority::Normal, line),
    };
    let (verb, args) = match rest.split_once(' ') {
        Some((v, a)) => (v, a.trim()),
        None => (rest, ""),
    };
    match verb {
        "ping" => Ok(Command::Ping),
        "shutdown" => Ok(Command::Shutdown),
        "checkpoint" => Ok(Command::Checkpoint),
        "stats" => Ok(Command::Submit(Request::Stats, priority)),
        "metrics" => Ok(Command::Submit(Request::Metrics, priority)),
        "slowlog" => Ok(Command::SlowLog),
        "check" => {
            if args.is_empty() {
                return Err("check: missing source (escaped vernacular text)".into());
            }
            let source = unescape(args)?;
            Ok(Command::Submit(Request::CheckSource { source }, priority))
        }
        "lattice" => {
            let features = match args {
                "full" | "" => Feature::all().to_vec(),
                "extended" => Feature::all_extended().to_vec(),
                tags => tags
                    .split(',')
                    .map(|t| {
                        let t = t.trim();
                        Feature::from_tag(t).ok_or_else(|| format!("lattice: unknown feature {t:?} (want full, extended, or a comma list of Fix/Prod/Sum/Isorec/Bool)"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            Ok(Command::Submit(Request::BuildLattice { features }, priority))
        }
        "theorem" => {
            let mut parts = args.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(family), Some(field), None) => Ok(Command::Submit(
                    Request::QueryTheorem {
                        family: family.to_string(),
                        field: field.to_string(),
                    },
                    priority,
                )),
                _ => Err("theorem: want `theorem <family> <field>`".into()),
            }
        }
        "redefine" => {
            let mut parts = args.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(family), Some(field), feats, None) => {
                    let features = match feats {
                        None | Some("full") => Feature::all().to_vec(),
                        Some("extended") => Feature::all_extended().to_vec(),
                        Some(tags) => tags
                            .split(',')
                            .map(|t| {
                                let t = t.trim();
                                Feature::from_tag(t).ok_or_else(|| format!("redefine: unknown feature {t:?} (want full, extended, or a comma list of Fix/Prod/Sum/Isorec/Bool)"))
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    };
                    Ok(Command::Submit(
                        Request::Redefine {
                            family: family.to_string(),
                            field: field.to_string(),
                            features,
                        },
                        priority,
                    ))
                }
                _ => Err("redefine: want `redefine <family> <field> [features]`".into()),
            }
        }
        "eval" => match args.split_once(' ') {
            Some((family, term)) if !term.trim().is_empty() => {
                let term = unescape(term.trim())?;
                Ok(Command::Submit(
                    Request::Eval {
                        family: family.to_string(),
                        term,
                    },
                    priority,
                ))
            }
            _ => Err("eval: want `eval <family> <term>` (e.g. `eval NatAdd add(2,3)`)".into()),
        },
        "" => Err("empty command".into()),
        other => Err(format!(
            "unknown command {other:?} (want check, lattice, redefine, theorem, eval, stats, metrics, slowlog, checkpoint, ping, shutdown)"
        )),
    }
}

/// Renders a successful response payload (unescaped; the wire form is
/// `ok {escape(payload)}`).
pub fn render_response(resp: &Response) -> String {
    match resp {
        Response::Checked { outputs, ledger } => {
            let mut s = outputs.join("\n");
            if !s.is_empty() {
                s.push('\n');
            }
            s.push_str(&format!(
                "[checked {} | shared {} | cache {}/{}]",
                ledger.checked_count(),
                ledger.shared_count(),
                ledger.cache_hits(),
                ledger.cache_hits() + ledger.cache_misses(),
            ));
            s
        }
        Response::Lattice { report, ledger } => format!(
            "{}\n[variants {} | checked {} | shared {} | cache hit ratio {:.1}%]",
            report.to_table(),
            report.rows.len(),
            ledger.checked_count(),
            ledger.shared_count(),
            100.0 * ledger.cache_hit_ratio(),
        ),
        Response::Theorem {
            family,
            field,
            statement,
        } => format!("{family}.{field}: {statement}"),
        Response::Eval {
            family,
            value,
            fuel_used,
        } => format!("{family} |- {value} [fuel {fuel_used}]"),
        Response::Stats { session, engine } => format!(
            "session: hits={} misses={} inserts={} cached={} | engine: submitted={} completed={} failed={} expired={} cancelled={} dedup={} rejected={} depth={}",
            session.hits,
            session.misses,
            session.inserts,
            session.cached_proofs,
            engine.submitted,
            engine.completed,
            engine.failed,
            engine.expired,
            engine.cancelled,
            engine.dedup_hits,
            engine.rejected,
            engine.queue_depth,
        ),
        Response::Metrics { text } => text.clone(),
    }
}

/// Renders the slow-elaboration log for the `slowlog` protocol command:
/// one line per entry, slowest first, with the dominating check units.
pub fn render_slow_log(entries: &[crate::engine::SlowEntry]) -> String {
    if entries.is_empty() {
        return "slow log empty".to_string();
    }
    let mut out = String::new();
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&format!("{:>8.1?}  {}", e.duration, e.label));
        for (unit, d) in &e.units {
            out.push_str(&format!("\n            {d:>8.1?}  {unit}"));
        }
    }
    out
}

/// Renders a job result onto one wire line (without the newline).
pub fn render_result(result: &Result<Response, EngineError>) -> String {
    match result {
        Ok(resp) => format!("ok {}", escape(&render_response(resp))),
        Err(e) => format!("err {}", escape(&e.to_string())),
    }
}

/// Serves both wire protocols on `listener` until `stop` is set
/// (typically by a client's `shutdown`): the newline-delimited text
/// protocol and the pipelined binary `fpopb/1` protocol, on the same
/// port via first-byte sniffing. This is the nonblocking event loop of
/// the connection layer (the `conn` module), with `engine` as its
/// backend — the same loop the fleet router runs. Unix only: `poll`
/// covers epoll (Linux) and poll(2) (other unix).
///
/// # Errors
///
/// Propagates fatal listener errors; per-connection I/O errors just drop
/// that connection.
#[cfg(unix)]
pub fn serve(
    engine: std::sync::Arc<crate::Engine>,
    listener: std::net::TcpListener,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
) -> std::io::Result<()> {
    crate::conn::run(crate::conn::EngineBackend::new(engine)?, listener, &stop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips() {
        for s in [
            "",
            "plain",
            "two\nlines",
            "back\\slash",
            "mixed \\n literal\nand real\r\n",
        ] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
        }
    }

    #[test]
    fn unescape_rejects_bad_escapes() {
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn parses_commands() {
        assert_eq!(parse_command("ping").unwrap(), Command::Ping);
        assert_eq!(parse_command("  shutdown  ").unwrap(), Command::Shutdown);
        assert_eq!(parse_command("checkpoint").unwrap(), Command::Checkpoint);
        assert_eq!(
            parse_command("stats").unwrap(),
            Command::Submit(Request::Stats, Priority::Normal)
        );
        assert_eq!(
            parse_command("high stats").unwrap(),
            Command::Submit(Request::Stats, Priority::High)
        );
        match parse_command("check Family F.\\nEnd F.").unwrap() {
            Command::Submit(Request::CheckSource { source }, Priority::Normal) => {
                assert_eq!(source, "Family F.\nEnd F.")
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_command("low lattice Fix,Prod").unwrap() {
            Command::Submit(Request::BuildLattice { features }, Priority::Low) => {
                assert_eq!(features, vec![Feature::Fix, Feature::Prod])
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_command("theorem STLC preservation").unwrap(),
            Command::Submit(
                Request::QueryTheorem {
                    family: "STLC".into(),
                    field: "preservation".into()
                },
                Priority::Normal
            )
        );
        assert_eq!(
            parse_command("high eval NatAdd add(succ(zero), 3)").unwrap(),
            Command::Submit(
                Request::Eval {
                    family: "NatAdd".into(),
                    term: "add(succ(zero), 3)".into()
                },
                Priority::High
            )
        );
    }

    #[test]
    fn parses_redefine_forms() {
        assert_eq!(
            parse_command("redefine STLCFix tyeval").unwrap(),
            Command::Submit(
                Request::Redefine {
                    family: "STLCFix".into(),
                    field: "tyeval".into(),
                    features: Feature::all().to_vec(),
                },
                Priority::Normal
            )
        );
        assert_eq!(
            parse_command("high redefine STLCFix tyeval Fix,Prod").unwrap(),
            Command::Submit(
                Request::Redefine {
                    family: "STLCFix".into(),
                    field: "tyeval".into(),
                    features: vec![Feature::Fix, Feature::Prod],
                },
                Priority::High
            )
        );
        assert!(parse_command("redefine STLCFix").is_err());
        assert!(parse_command("redefine STLCFix tyeval Nope").is_err());
        assert!(parse_command("redefine STLCFix tyeval Fix extra").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_command("").is_err());
        assert!(parse_command("frobnicate").is_err());
        assert!(parse_command("check").is_err());
        assert!(parse_command("lattice Fix,Nope").is_err());
        assert!(parse_command("theorem STLC").is_err());
        assert!(parse_command("check bad\\q").is_err());
        assert!(parse_command("eval").is_err());
        assert!(parse_command("eval NatAdd").is_err());
        assert!(parse_command("eval NatAdd bad\\q").is_err());
    }

    #[test]
    fn renders_eval_response() {
        let line = render_response(&Response::Eval {
            family: "NatAdd".into(),
            value: "5".into(),
            fuel_used: 42,
        });
        assert_eq!(line, "NatAdd |- 5 [fuel 42]");
    }

    #[test]
    fn lattice_keyword_forms() {
        match parse_command("lattice full").unwrap() {
            Command::Submit(Request::BuildLattice { features }, _) => {
                assert_eq!(features.len(), 4)
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_command("lattice extended").unwrap() {
            Command::Submit(Request::BuildLattice { features }, _) => {
                assert_eq!(features.len(), 5)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn render_err_is_single_line() {
        let line = render_result(&Err(EngineError::Failed("multi\nline\nreason".into())));
        assert!(line.starts_with("err "));
        assert!(!line.contains('\n'));
    }
}
