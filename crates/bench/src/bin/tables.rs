//! Regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `tables [<subcommand> [--flag=value ...]]`. Without a
//! subcommand, or with `all`, it prints
//! `table1 table2 table3 fig4 fig5 fig6 fig7 fig8 vsef endtoend ablation
//! rho community vigilante nx`, each of which also runs on its own.
//!
//! An unknown subcommand, an unknown flag, a malformed flag value or
//! `--hosts` below 2 prints the usage and exits 2. A subcommand whose
//! gate fails panics (nonzero exit), so each subcommand's exit status
//! is its CI gate.
//!
//! Extras, not part of `all`:
//!
//! * `fig6mc|fig7mc|fig8mc [--hosts=N] [--shards=K] [--seed=S]` — the
//!   same figures regenerated by the discrete-tick community engine
//!   instead of the ODEs (bit-deterministic per seed at any `K`).
//! * `shards [--hosts=N] [--shards=K] [--seed=S]` — one large
//!   Figure-7-style run printing the per-shard counter report (hosts
//!   infected, antibodies applied, events exchanged, phase wall-clock).
//! * `fleet [--hosts=N] [--seed=S]` — the virtual-clock fleet reactor:
//!   N guest Sweeper hosts (default 1000) under open-loop Poisson load
//!   with a mid-run worm outbreak, reporting fleet-wide p50/p99/p999
//!   benign service latency for the outbreak window vs the quiescent
//!   baseline. Gate: both latency windows have a finite p99. The table
//!   has no wall-clock column, so a repeat run must print it
//!   byte-identically (invariant I10; `scripts/ci.sh` checks this).
//! * `fleetrecover [--hosts=N] [--seed=S]` — the
//!   Full-vs-Domain recovery comparison on the same fleet reactor: the
//!   identical outbreak runs once with every attacked host doing
//!   whole-epoch rollback/replay (`Full`) and once with per-connection
//!   rollback domains (`Domain`, the default mode), plus a
//!   `Differential` leg running both in lockstep as a recovery oracle.
//!   Gates: Domain outbreak p999 strictly below Full, zero I12
//!   violations (benign domains undisturbed), and differential parity.
//!   Like `fleet`, a repeat run prints the same table.
//! * `fig9fail [--hosts=N] [--seed=S]` — the million-host containment
//!   sweep on the struct-of-arrays engine: the same scanning worm with
//!   no defense, the connection-failure estimator, the antibody
//!   distribution (α = 0.1 %, γ = 10 ticks), and both. Gates: the
//!   20k-host parity runs (SoA ↔ legacy equal outside wall-clock fields
//!   at K ∈ {1, 4}, invariant I11) and a finite antibody-arm per-host
//!   tick rate.
//! * `ckptparity` — checkpoint parity smoke: drive all four guests
//!   (benign load + the canonical exploit) under the incremental
//!   snapshot engine at a 0.2 ms cadence and round-trip every retained
//!   checkpoint; fewer than 10 retained snapshots per guest, a failed
//!   digest-verified rebuild, or a rollback that differs from its
//!   materialized image fails the gate.
//! * `ckptcadence [--requests=N]` — print the checkpoint-overhead sweep
//!   (full vs incremental engine, 20–200 ms cadences) as a text table;
//!   the incremental 200 ms cell is the PR-7 < 1% acceptance number.
//! * `fig9dist [--hosts=N] [--seed=S]` — print the containment-vs-loss /
//!   Byzantine-fraction sweep as a text table: the community outbreak
//!   with the antibody distribution network over an increasingly lossy
//!   and adversarial wire (γ becomes emergent; see EXPERIMENTS.md).
//!   Gate: no cell deploys an unverified bundle (invariant I8).
//! * `obs` — run the canonical Squid exploit end-to-end and dump the
//!   merged observability snapshot (counters, gauges, pipeline phase
//!   spans on the virtual clock with wall-clock mirrors) human-readably.
//! * `obsjson` — the same snapshot as compact JSON.
//! * `servicepath [--requests=N] [--rounds=R]` — the service path of a
//!   protected Squid request in host wall time, layer by layer: a bare
//!   `Machine::run`, then the proxy, the checkpoint manager's per-request
//!   walk, and `Sweeper::offer_request` with checkpoints off and at
//!   200 ms (default 4,000 requests, 9 alternating rounds; median µs per
//!   request with the round range). Its gate is that every request is
//!   served; the wall numbers are report-only.
//!
//! Wall-clock performance is measured by the `benchmark/` package, not
//! here.

use std::str::FromStr;

use apps::{squid, workload::Target};
use bench::{
    attack_timeline, checkpoint_overhead, end_to_end_gamma, table1, table2, table3, vsef_overhead,
};
use epidemic::{CommunitySweepConfig, Parallelism};
use sweeper::Config;

/// Flags of the community-engine subcommands.
const COMMUNITY: &[&str] = &["hosts", "shards", "seed"];

/// Every subcommand with the flags it accepts.
const COMMANDS: &[(&str, &[&str])] = &[
    ("all", &[]),
    ("table1", &[]),
    ("table2", &[]),
    ("table3", &[]),
    ("fig4", &[]),
    ("fig5", &[]),
    ("fig6", &[]),
    ("fig7", &[]),
    ("fig8", &[]),
    ("vsef", &[]),
    ("endtoend", &[]),
    ("ablation", &[]),
    ("rho", &[]),
    ("community", &[]),
    ("vigilante", &[]),
    ("nx", &[]),
    ("fig6mc", COMMUNITY),
    ("fig7mc", COMMUNITY),
    ("fig8mc", COMMUNITY),
    ("shards", COMMUNITY),
    ("fleet", &["hosts", "seed"]),
    ("fleetrecover", &["hosts", "seed"]),
    ("fig9fail", &["hosts", "seed"]),
    ("ckptparity", &[]),
    ("ckptcadence", &["requests"]),
    ("fig9dist", &["hosts", "seed"]),
    ("obs", &[]),
    ("obsjson", &[]),
    ("servicepath", &["requests", "rounds"]),
];

/// What `all` prints, in order.
const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "vsef",
    "endtoend",
    "ablation",
    "rho",
    "community",
    "vigilante",
    "nx",
];

/// Print `problem` and the usage to stderr, then exit 2.
fn usage(problem: &str) -> ! {
    eprintln!("tables: {problem}");
    eprintln!("usage: tables [<subcommand> [--flag=value ...]]");
    for (name, flags) in COMMANDS {
        let flags: String = flags.iter().map(|f| format!(" [--{f}=..]")).collect();
        eprintln!("  {name}{flags}");
    }
    std::process::exit(2);
}

/// The `--name=value` flags given to one subcommand, each checked
/// against the names it accepts.
struct Flags(Vec<(&'static str, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&'static str]) -> Flags {
        let flags = args
            .iter()
            .map(|arg| {
                arg.strip_prefix("--")
                    .and_then(|kv| kv.split_once('='))
                    .and_then(|(k, v)| {
                        let name = allowed.iter().find(|&&a| a == k)?;
                        Some((*name, v.to_string()))
                    })
                    .unwrap_or_else(|| usage(&format!("unknown flag `{arg}`")))
            })
            .collect();
        let flags = Flags(flags);
        // Every engine behind `--hosts` needs two hosts to spread.
        if flags.get::<u64>("hosts").is_some_and(|h| h < 2) {
            usage("--hosts must be at least 2");
        }
        flags
    }

    /// The value of `--name=`, if given; the last one given wins.
    fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let (_, v) = self.0.iter().rev().find(|(k, _)| *k == name)?;
        let parsed = v.parse();
        Some(parsed.unwrap_or_else(|_| usage(&format!("bad value `{v}` for --{name}"))))
    }

    /// The community sweep config, with `default_hosts` when no
    /// `--hosts=` is given.
    fn community(&self, default_hosts: u64) -> CommunitySweepConfig {
        let d = CommunitySweepConfig::default();
        CommunitySweepConfig {
            hosts: self.get("hosts").unwrap_or(default_hosts),
            seed: self.get("seed").unwrap_or(d.seed),
            parallelism: self.get("shards").map_or(d.parallelism, Parallelism::Fixed),
            ..d
        }
    }

    /// The fleet config of `fleet`/`fleetrecover`.
    fn fleet(&self) -> fleet::FleetConfig {
        let hosts = self.get("hosts").unwrap_or(1000);
        fleet::FleetConfig::new(hosts, self.get("seed").unwrap_or(7))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("all", String::as_str);
    let Some(&(_, allowed)) = COMMANDS.iter().find(|(name, _)| *name == cmd) else {
        usage(&format!("unknown subcommand `{cmd}`"));
    };
    let flags = Flags::parse(args.get(1..).unwrap_or_default(), allowed);
    if cmd == "all" {
        for name in ALL {
            run(name, &flags);
        }
    } else {
        run(cmd, &flags);
    }
}

/// Run one subcommand (never `all`) with its already-checked flags.
fn run(cmd: &str, flags: &Flags) {
    let default_hosts = CommunitySweepConfig::default().hosts;
    match cmd {
        "table1" => println!("{}", table1()),
        "table2" => println!("{}", table2()),
        "table3" => println!("{}", table3()),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => println!("{}", epidemic::figure6().render()),
        "fig7" => println!("{}", epidemic::figure7().render()),
        "fig8" => println!("{}", epidemic::figure8().render()),
        "fig6mc" => {
            let cfg = flags.community(default_hosts);
            println!("{}", epidemic::figure6_community(&cfg).render());
        }
        "fig7mc" => {
            let cfg = flags.community(default_hosts);
            println!("{}", epidemic::figure7_community(&cfg).render());
        }
        "fig8mc" => {
            let cfg = flags.community(default_hosts);
            println!("{}", epidemic::figure8_community(&cfg).render());
        }
        "shards" => {
            let cfg = flags.community(100_000);
            let (outcome, secs) = bench::model_campaign(cfg.hosts, cfg.parallelism, cfg.seed);
            println!("Figure-7-style run, sharded community engine:");
            println!("{}", outcome.shard_report());
            println!("wall-clock: {secs:.3} s\n");
        }
        "fleet" => {
            let block = bench::perf::fleet_block(&flags.fleet()).expect("fleet run");
            assert!(
                block.quiescent.p99_ms.is_finite() && block.outbreak.p99_ms.is_finite(),
                "a fleet latency window has no samples (p99 not finite)"
            );
            println!("{}\n", bench::perf::render_fleet_block(&block));
        }
        "fleetrecover" => {
            let block = bench::perf::recovery_block(&flags.fleet()).expect("fleet run");
            assert!(
                block.i12_violations == 0,
                "partial rollback disturbed a benign domain (invariant I12)"
            );
            assert!(
                block.domain_parity,
                "Differential recovery found a Domain/Full divergence"
            );
            assert!(
                block.p999_ratio < 1.0,
                "Domain recovery must beat Full on outbreak tail latency, got {:.3}x",
                block.p999_ratio
            );
            println!("{}\n", bench::perf::render_recovery_block(&block));
        }
        "ckptparity" => {
            println!("checkpoint parity smoke (all guests, incremental engine @ 0.2 ms):");
            for line in bench::perf::ckptparity_smoke() {
                println!("  {line}");
            }
            println!("ckptparity: OK\n");
        }
        "ckptcadence" => {
            let block = bench::perf::checkpoint_block(flags.get("requests").unwrap_or(2000));
            println!("{}\n", bench::perf::render_checkpoint_block(&block));
        }
        "fig9fail" => {
            let hosts = flags.get("hosts").unwrap_or(1_000_000);
            let block = bench::perf::epidemic1m_block(hosts, flags.get("seed").unwrap_or(7));
            assert!(
                block.soa_parity,
                "SoA and legacy engines diverged under the parity gate (invariant I11)"
            );
            assert!(
                block.k_invariant,
                "shard count changed the parity-gate outcome"
            );
            assert!(
                block.host_ticks_per_sec.is_finite(),
                "the antibody arm's per-host tick rate is not finite"
            );
            println!("{}\n", bench::perf::render_epidemic_block(&block));
        }
        "fig9dist" => {
            let hosts = flags.get("hosts").unwrap_or(2_000);
            let seed = flags.get("seed").unwrap_or(1);
            let cells = bench::perf::distnet_sweep(hosts, seed);
            println!("{}", bench::perf::render_distnet_sweep(hosts, seed, &cells));
            for c in &cells {
                assert_eq!(
                    c.deployed_unverified, 0,
                    "loss {} byz {}: unverified bundle deployed (invariant I8)",
                    c.loss, c.byzantine
                );
            }
        }
        "obs" => {
            println!("Observability snapshot (Squid exploit, full producer pipeline):");
            println!("{}", bench::obs_snapshot().render());
        }
        "obsjson" => println!("{}", bench::obs_snapshot().to_json()),
        "servicepath" => {
            let n = flags.get("requests").unwrap_or(4000usize).max(1);
            let rounds = flags.get("rounds").unwrap_or(9usize).max(1);
            service_path(n, rounds);
        }
        "vsef" => {
            let (base, vsef, overhead, sites) = vsef_overhead(200);
            println!(
                "VSEF overhead (section 5.3, Squid): baseline {base:.2} Mbps vs VSEF {vsef:.2} Mbps -> {:.2}% drop ({sites} instrumented sites)",
                overhead * 100.0
            );
            let (none_ms, deployed_ms) = bench::vsef_wall_ms(200, 9);
            println!(
                "  host wall time to serve the 200 requests (median of 9 alternating pairs): no antibody {none_ms:.2} ms vs antibody deployed {deployed_ms:.2} ms -> {:+.1}%\n",
                (deployed_ms / none_ms - 1.0) * 100.0
            );
        }
        "endtoend" => println!("{}", end_to_end_gamma()),
        "ablation" => println!("{}", bench::defense_matrix(6)),
        "rho" => {
            let trials = 2000;
            let (hits, rate) = bench::empirical_rho(trials, 0xabcde);
            println!(
                "Empirical ASLR bypass probability: {hits}/{trials} compromises (rate {rate:.5}; model rho = 2^-12 = {:.5})\n",
                (2.0f64).powi(-12)
            );
        }
        "community" => {
            println!(
                "Community defense over real Sweeper hosts (CVS unlink worm, hit-list order):"
            );
            for (producer_every, dissemination) in [(4usize, 2usize), (10, 3), (10, 6)] {
                let cfg = bench::CampaignConfig {
                    hosts: 12,
                    producer_every,
                    dissemination_attempts: dissemination,
                    consumers_unrandomized: true,
                    seed: 0xc0117,
                };
                let r = bench::run_campaign(cfg);
                println!("  {}", bench::community_sim::render(cfg, &r));
            }
            println!();
        }
        "vigilante" => {
            let (cpu_mult, always_on, sweeper) = bench::ablation::vigilante_comparison(120);
            println!("Vigilante-style baseline (always-on taint) vs Sweeper:");
            println!("  CPU-bound taint multiplier      : {cpu_mult:.1}x (paper band: 30-40x)");
            println!(
                "  always-on taint server overhead : {:.2}%",
                always_on * 100.0
            );
            println!(
                "  Sweeper default server overhead : {:.2}%\n",
                sweeper * 100.0
            );
        }
        "nx" => {
            let (compromised, detected) = bench::nx_ablation();
            println!(
                "NX ablation (perfect layout guess): compromised = {compromised}, detected = {detected}\n"
            );
        }
        _ => unreachable!("`{cmd}` is listed in COMMANDS but has no arm"),
    }
}

fn service_path(n: usize, rounds: usize) {
    println!(
        "Service path of a protected Squid request (host wall time, {n} requests, median of {rounds} alternating rounds):"
    );
    println!("{:<42} {:>8} {:>18}", "layers", "us/req", "round range");
    let rows = bench::service_path_us(n, rounds);
    for r in &rows {
        println!(
            "{:<42} {:>8.2} {:>8.2} .. {:<7.2}",
            r.layer, r.median_us, r.min_us, r.max_us
        );
    }
    let (bare, off, full) = (&rows[0], &rows[3], &rows[4]);
    println!(
        "protected / bare: {:.2}x with checkpoints off, {:.2}x at 200 ms ({} takes per round after the base snapshot)\n",
        off.median_us / bare.median_us,
        full.median_us / bare.median_us,
        full.takes
    );
}

fn fig4() {
    println!("Figure 4: throughput overhead vs checkpoint interval (Squid, benign load)");
    println!("{:>12} {:>12}", "interval", "overhead");
    let app = squid::app().expect("app");
    for ms in [
        20.0, 30.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0,
    ] {
        let o = checkpoint_overhead(&app, Target::Squid, ms, 6000);
        println!("{:>10} ms {:>11.3}%", ms, o * 100.0);
    }
    println!();
}

fn fig5() {
    println!("Figure 5: throughput during a single attack against Squid");
    let app = squid::app().expect("app");
    let tl = attack_timeline(
        &app,
        Config::producer(17),
        Target::Squid,
        squid::exploit_crash(&app).input,
        400,
        400,
        0.02,
    );
    println!(
        "attack at {:.3}s; recovery: {} ({:.3}s pause)",
        tl.attack_secs, tl.method, tl.pause_secs
    );
    let peak = tl.mbps.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
    for (i, m) in tl.mbps.iter().enumerate() {
        let t = i as f64 * tl.bin_secs;
        let bar = "#".repeat(((m / peak) * 50.0) as usize);
        println!("{t:>7.2}s |{bar:<50}| {m:>8.2} Mbps");
    }
    println!();
}
