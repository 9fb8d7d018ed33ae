//! Drive the individual analysis tools by hand — the paper's §2.2
//! walk-through on the Squid heap overflow (Figure 2), tool by tool.
//!
//! ```sh
//! cargo run --example forensics
//! ```

use sweeper_repro::analysis::{backward_slice, MemBugDetector, TaintTool};
use sweeper_repro::apps::squid;
use sweeper_repro::checkpoint::{CheckpointManager, NoFault, Proxy, ReplaySession};
use sweeper_repro::dbi::{Instrumenter, TraceRecorder};
use sweeper_repro::svm::{loader::Aslr, NopHook};

fn main() {
    let app = squid::app().expect("assemble mini-squid");
    let mut m = app.boot(Aslr::on(0xf02e)).expect("boot");
    m.run(&mut NopHook, 100_000_000);

    // Checkpoint, then serve benign traffic and the exploit.
    let mut mgr = CheckpointManager::with_defaults();
    let mut proxy = Proxy::new();
    let ckpt = mgr.take(&mut m);
    for i in 0..2 {
        proxy.offer(
            &mut m,
            squid::benign_request(&format!("user{i}"), "ftp.example"),
            &[],
        );
        m.run(&mut NopHook, 400_000_000);
    }
    proxy.offer(&mut m, squid::exploit_crash(&app).input, &[]);
    m.run(&mut NopHook, 400_000_000);
    println!("lightweight monitor tripped: {:?}\n", m.status());
    println!("== raw core dump ==");
    println!("{}", sweeper_repro::svm::debug::dump(&m));

    // Step 1: memory-state (core dump) analysis — milliseconds.
    let core = sweeper_repro::analysis::analyze(&m).expect("core dump");
    println!("== step 1: memory-state analysis ==");
    println!("crash class    : {:?}", core.class);
    println!("fault site     : {}", core.fault_site);
    println!(
        "stack          : {}",
        if core.stack_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );
    println!(
        "heap           : {}",
        if core.heap_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );
    println!("initial VSEF   : {:?}\n", core.recommendation);

    // Step 2: rollback + memory-bug detection.
    println!("== step 2: memory-bug detection on replay ==");
    let det = MemBugDetector::attach_to(&mgr.materialize(ckpt).expect("ckpt"));
    let mut ins = Instrumenter::new();
    let id = ins.attach(Box::new(det));
    ReplaySession::new(&mgr, &proxy, ckpt)
        .expect("session")
        .run(&mut ins, &mut NoFault);
    let findings = ins
        .get::<MemBugDetector>(id)
        .expect("tool")
        .findings()
        .to_vec();
    for f in &findings {
        let caller = f
            .caller_pc
            .map(|c| format!(" called by {}", m.symbols.render(c)))
            .unwrap_or_default();
        println!("{:?} by {}{}", f.kind, m.symbols.render(f.pc), caller);
    }

    // Step 3: rollback + dynamic taint analysis.
    println!("\n== step 3: dynamic taint analysis on replay ==");
    let mut ins3 = Instrumenter::new();
    let tid = ins3.attach(Box::new(TaintTool::new()));
    let out = ReplaySession::new(&mgr, &proxy, ckpt)
        .expect("session")
        .run(&mut ins3, &mut NoFault);
    let taint = ins3.get::<TaintTool>(tid).expect("tool");
    if let sweeper_repro::svm::Status::Faulted(f) = out.machine.status() {
        let corrupt = f.fault_addr().expect("addr");
        let sources = taint.taint_of_mem(corrupt, 8);
        println!("corrupt chunk header at {corrupt:#010x} is tainted by:");
        for (conn, off) in &sources {
            println!("  connection {conn}, input byte offset {off}");
        }
    }

    // Step 4: rollback + full trace + backward slice (the sanity check).
    println!("\n== step 4: dynamic backward slicing on replay ==");
    let mut ins4 = Instrumenter::new();
    let rid = ins4.attach(Box::new(TraceRecorder::new()));
    ReplaySession::new(&mgr, &proxy, ckpt)
        .expect("session")
        .run(&mut ins4, &mut NoFault);
    let trace = ins4.get::<TraceRecorder>(rid).expect("tool");
    let slice = backward_slice(trace, trace.len() - 1, true);
    println!("trace length   : {} dynamic instructions", trace.len());
    println!(
        "slice size     : {} instructions, {} static pcs",
        slice.len(),
        slice.pcs.len()
    );
    println!(
        "input deps     : {} bytes across the connection log",
        slice.input_deps.len()
    );
    for f in &findings {
        println!(
            "verifies step 2: {:?} at {} -> {}",
            f.kind,
            m.symbols.render(f.pc),
            if slice.contains_pc(f.pc) {
                "IN SLICE (confirmed)"
            } else {
                "outside slice"
            }
        );
    }
}
