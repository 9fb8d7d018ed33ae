//! Human-readable reports rendering the paper's Tables 2 and 3.

use crate::pipeline::AnalysisReport;
use crate::runtime::AttackReport;

/// Render a Table 2-style block for one attack.
pub fn table2_block(app: &str, report: &AttackReport) -> String {
    let mut out = String::new();
    let push = |out: &mut String, s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    push(&mut out, format!("== {app} =="));
    push(&mut out, format!("detection        : {}", report.cause));
    let Some(a) = &report.analysis else {
        push(
            &mut out,
            "analysis         : (none — consumer or known vulnerability)".into(),
        );
        return out;
    };
    // Render with the symbols captured at analysis time: a restart may
    // have re-randomized the live machine's layout since.
    let symbols = &a.symbols;
    push(
        &mut out,
        format!(
            "#1 memory state  : crash at {}; stack {}; heap {}",
            a.core.fault_site,
            if a.core.stack_consistent {
                "consistent"
            } else {
                "INCONSISTENT"
            },
            if a.core.heap_consistent {
                "consistent"
            } else {
                "INCONSISTENT"
            },
        ),
    );
    for r in a.antibody.releases.iter() {
        if let antibody::AntibodyItem::Vsef(v) = &r.item {
            push(
                &mut out,
                format!("   VSEF          : {} ({} sites)", v.kind(), v.site_count()),
            );
        }
    }
    if a.membug.is_empty() {
        push(&mut out, "#2 memory bug    : no memory bug detected".into());
    } else {
        for f in &a.membug {
            let caller = f
                .caller_pc
                .map(|c| format!(" called by {}", symbols.render(c)))
                .unwrap_or_default();
            push(
                &mut out,
                format!(
                    "#2 memory bug    : {:?} by {}{}",
                    f.kind,
                    symbols.render(f.pc),
                    caller
                ),
            );
        }
    }
    let via = if a.input.via_taint {
        "taint analysis"
    } else {
        "input isolation"
    };
    push(
        &mut out,
        format!(
            "#3 input/taint   : attack connection(s) {:?} via {via}; {} tainted offsets",
            a.input.attack_log_ids,
            a.input.offsets.len()
        ),
    );
    match &a.slice {
        Some(s) => {
            let verdicts = [
                s.membug_verified.map(|v| format!("membug {}", tick(v))),
                s.taint_verified.map(|v| format!("taint {}", tick(v))),
            ]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join(", ");
            push(
                &mut out,
                format!(
                    "#4 slicing       : {} insns in slice; verifies: {}",
                    s.slice_len,
                    if verdicts.is_empty() {
                        "n/a".into()
                    } else {
                        verdicts
                    }
                ),
            );
        }
        None => push(&mut out, "#4 slicing       : (disabled)".into()),
    }
    push(
        &mut out,
        format!(
            "recovery         : {} ({:.1} ms pause)",
            report.recovery_method, report.pause_ms
        ),
    );
    out
}

fn tick(v: bool) -> &'static str {
    if v {
        "OK"
    } else {
        "MISMATCH"
    }
}

/// Render a Table 3-style timing row.
pub fn table3_row(app: &str, a: &AnalysisReport) -> String {
    let t = &a.timings;
    format!(
        "{app:<9} first VSEF {:>9.2} ms | best VSEF {:>9.2} ms | initial {:>9.2} ms | total {:>9.2} ms || state {:>7.2} ms, membug {:>8.2} ms, taint {:>8.2} ms, slicing {:>9.2} ms",
        t.first_vsef_ms, t.best_vsef_ms, t.initial_ms, t.total_ms,
        t.memory_state_ms, t.memory_bug_ms, t.taint_ms, t.slicing_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::runtime::{RequestOutcome, Sweeper};
    use apps::squid;

    fn attacked() -> (Sweeper, AttackReport) {
        let app = squid::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(0x7e57)).expect("protect");
        s.offer_request(squid::benign_request("warm", "host"));
        match s.offer_request(squid::exploit_crash(&app).input) {
            RequestOutcome::Attack(r) => (s, *r),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn table2_block_contains_all_four_steps() {
        let (_s, report) = attacked();
        let block = table2_block("Squid", &report);
        for needle in [
            "#1 memory state",
            "#2 memory bug",
            "#3 input/taint",
            "#4 slicing",
            "recovery",
        ] {
            assert!(block.contains(needle), "missing {needle}:\n{block}");
        }
        assert!(block.contains("heap INCONSISTENT"));
        assert!(
            block.contains("strcat"),
            "membug attribution rendered:\n{block}"
        );
        assert!(
            block.contains("ftp_build_title_url"),
            "caller rendered:\n{block}"
        );
    }

    #[test]
    fn table3_row_is_one_line_with_all_columns() {
        let (_s, report) = attacked();
        let a = report.analysis.expect("analysis");
        let row = table3_row("Squid", &a);
        assert_eq!(row.lines().count(), 1);
        for col in [
            "first VSEF",
            "best VSEF",
            "initial",
            "total",
            "membug",
            "taint",
            "slicing",
        ] {
            assert!(row.contains(col), "missing {col}: {row}");
        }
    }

    #[test]
    fn consumer_report_renders_without_analysis() {
        let app = squid::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::consumer(0x7e58)).expect("protect");
        let RequestOutcome::Attack(r) = s.offer_request(squid::exploit_crash(&app).input) else {
            panic!("not detected")
        };
        let block = table2_block("Squid", &r);
        assert!(block.contains("(none — consumer or known vulnerability)"));
        assert!(!block.contains("#2"), "no analysis sections:\n{block}");
    }
}
