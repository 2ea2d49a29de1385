//! `pfdbg` — command-line driver for the parameterized FPGA debugging
//! flow.
//!
//! ```text
//! pfdbg instrument <design.blif> [--ports N] [--coverage C] [--out inst.blif] [--par inst.par]
//! pfdbg compare    <design.blif|@benchmark> [--k K] [--ports N] [--coverage C]
//! pfdbg offline    <design.blif|@benchmark> [--k K] [--ports N]
//! pfdbg observe    <design.blif|@benchmark> --signals s1,s2|auto [--cycles N]
//! pfdbg rank       <design.blif|@benchmark> [--top N]
//! pfdbg report     <trace.jsonl>
//! pfdbg scrub      <design.blif|@benchmark> [--turns N] [--scrub-every N] [--seu-rate R]
//! pfdbg serve      <design.blif|@benchmark> [--addr H:P|--port P] [--workers N] [--shards N] [--devices N] [--spares N] [--port-file f]
//! pfdbg client     <host:port> [--request '<json>'] [--shutdown]
//! pfdbg bench-list
//! ```
//!
//! `@name` selects a generated benchmark from the calibrated suite
//! (e.g. `@stereov.`, `@clma`).
//!
//! Commands that run the offline flow (`offline`, `observe`, `serve`)
//! go through the content-addressed artifact store by default
//! (`.pfdbg-store/` in the working directory): the first compile of a
//! design stores its generalized bitstream, and every later run on the
//! same inputs is a cache hit that skips synth/map/TPaR entirely.
//! `--store-dir <dir>` relocates the store, `--no-store` bypasses it.
//!
//! The global flags `--profile` (print the hierarchical span report on
//! exit) and `--trace-out <file.jsonl>` (export every recorded event)
//! switch the observability layer on; `pfdbg report` digests a trace
//! file back into a summary.

use pfdbg_core::{
    compare_mappers, instrument, offline, prepare_instrumented, rank_signals, DebugSession,
    InstrumentConfig, OfflineConfig, PAPER_K,
};
use pfdbg_netlist::{blif, Network};
use pfdbg_pconf::OnlineReconfigurator;
use pfdbg_store::{ArtifactStore, CacheOutcome};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let profile = take_switch(&mut args, "--profile");
    let trace_out = take_valued(&mut args, "--trace-out");
    if trace_out.is_none() && args.iter().any(|a| a == "--trace-out") {
        pfdbg_obs::diag("--trace-out expects a file path");
        return ExitCode::FAILURE;
    }
    if profile || trace_out.is_some() {
        pfdbg_obs::set_enabled(true);
    }

    let result = run(&args);

    // Result tables own stdout; the profile report is a diagnostic.
    if profile {
        eprint!("{}", pfdbg_obs::registry().render_tree());
    }
    let mut code = match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            pfdbg_obs::diag(&e);
            ExitCode::FAILURE
        }
    };
    if let Some(path) = trace_out {
        match std::fs::write(&path, pfdbg_obs::registry().to_jsonl()) {
            Ok(()) => pfdbg_obs::diag(&format!("wrote trace to {path}")),
            Err(e) => {
                pfdbg_obs::diag(&format!("{path}: {e}"));
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// Remove a boolean flag from the argument list, reporting its presence.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Remove a `--flag value` pair from the argument list.
fn take_valued(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        return None;
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "instrument" => cmd_instrument(rest),
        "compare" => cmd_compare(rest),
        "offline" => cmd_offline(rest),
        "observe" => cmd_observe(rest),
        "rank" => cmd_rank(rest),
        "localize" => cmd_localize(rest),
        "report" => cmd_report(rest),
        "scrub" => cmd_scrub(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "top" => cmd_top(rest),
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "fuzz" => cmd_fuzz(rest),
        "bench-list" => {
            for name in pfdbg_circuits::names() {
                let row = pfdbg_circuits::paper_row(name).expect("known");
                println!(
                    "{name:10} {:>6} gates (paper: {:>5} initial LUTs)",
                    row.gates, row.initial_luts
                );
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try --help)")),
    }
}

fn print_usage() {
    println!(
        "pfdbg — parameterized FPGA debugging flow\n\
         \n\
         usage:\n\
         \x20 pfdbg instrument <design.blif> [--ports N] [--coverage C] [--out f.blif] [--par f.par]\n\
         \x20 pfdbg compare    <design.blif|@bench> [--k K] [--ports N] [--coverage C]\n\
         \x20 pfdbg offline    <design.blif|@bench> [--k K] [--ports N] [--dump-bitstream f.pfb]\n\
         \x20 pfdbg observe    <design.blif|@bench> --signals s1,s2|auto [--cycles N]\n\
         \x20                  [--icap-fault-rate R] [--icap-seed S] [--max-retries N]\n\
         \x20 pfdbg rank       <design.blif|@bench> [--top N]\n\
         \x20 pfdbg localize   <design.blif|@bench> [--bug <net>] [--cycles N]\n\
         \x20 pfdbg report     <trace.jsonl>\n\
         \x20 pfdbg scrub      <design.blif|@bench> [--turns N] [--scrub-every N]\n\
         \x20                  [--seu-rate R] [--seu-seed S] [--seu-burst B] [--icap-fault-rate R]\n\
         \x20 pfdbg serve      <design.blif|@bench> [--addr H:P|--port P] [--workers N] [--cache N] [--port-file f]\n\
         \x20                  [--shards N] [--inbox-cap N] (session-owning shard threads; bounded inboxes)\n\
         \x20                  [--icap-fault-rate R] [--icap-seed S] [--max-retries N]\n\
         \x20                  [--scrub-interval MS] [--seu-rate R] [--seu-seed S] [--seu-burst B]\n\
         \x20                  [--journal-dir DIR] (record every session; restore on restart)\n\
         \x20                  [--devices N] [--spares N] (supervised device fleet with failover)\n\
         \x20 pfdbg record     <design.blif|@bench|gen:SEED> --out <f.pfdj> [--turns N] [--seed S]\n\
         \x20                  [--scrub-every N] [--session NAME] [chaos flags as for serve]\n\
         \x20 pfdbg replay     <journal.pfdj> (exit 1 on divergence)\n\
         \x20 pfdbg fuzz       [--cases N] [--seed S] [--corpus-dir DIR] (differential turn fuzzer)\n\
         \x20 pfdbg client     <host:port> [--request '<json>'] [--shutdown]\n\
         \x20 pfdbg top        <host:port> [--interval MS] [--iters N] [--no-clear]\n\
         \x20 pfdbg bench-list\n\
         \n\
         global flags: --profile (span report on exit), --trace-out <f.jsonl>\n\
         store flags (offline/observe/serve): --store-dir <dir> (default .pfdbg-store), --no-store\n\
         `@name` uses a generated benchmark from the calibrated suite."
    );
}

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter().position(|a| a == name).and_then(|i| rest.get(i + 1).cloned())
}

fn flag_usize(rest: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag(rest, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name} expects a number, got {v:?}")),
    }
}

fn flag_f64(rest: &[String], name: &str, default: f64) -> Result<f64, String> {
    match flag(rest, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name} expects a number, got {v:?}")),
    }
}

/// Chaos knobs shared by `observe` and `serve`: an ICAP fault-injection
/// config (explicit `--icap-fault-rate`, falling back to
/// `PFDBG_ICAP_FAULT_RATE`) and the commit retry policy.
fn chaos_from_flags(
    rest: &[String],
) -> Result<(Option<pfdbg_emu::IcapFaultConfig>, pfdbg_pconf::CommitPolicy), String> {
    let rate = flag_f64(rest, "--icap-fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--icap-fault-rate expects a rate in [0, 1], got {rate}"));
    }
    let seed = flag_usize(rest, "--icap-seed", 0x1CAB_FA17)? as u64;
    let defaults = pfdbg_pconf::CommitPolicy::default();
    let policy = pfdbg_pconf::CommitPolicy {
        max_retries: flag_usize(rest, "--max-retries", defaults.max_retries as usize)? as u32,
        ..defaults
    };
    let fault = if rate > 0.0 {
        Some(pfdbg_emu::IcapFaultConfig::uniform(rate, seed))
    } else {
        pfdbg_emu::IcapFaultConfig::from_env()
    };
    Ok((fault, policy))
}

/// SEU knobs shared by `scrub` and `serve`: an explicit `--seu-rate`
/// (with `--seu-seed`/`--seu-burst`) wins, `PFDBG_SEU_RATE` is the
/// fallback, and an explicit rate of 0 disables injection even when the
/// environment is set.
fn seu_from_flags(rest: &[String]) -> Result<Option<pfdbg_emu::SeuConfig>, String> {
    let Some(rate) = flag(rest, "--seu-rate") else {
        return Ok(pfdbg_emu::SeuConfig::from_env());
    };
    let rate: f64 =
        rate.parse().map_err(|_| format!("--seu-rate expects a number, got {rate:?}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--seu-rate expects a rate in [0, 1], got {rate}"));
    }
    if rate == 0.0 {
        return Ok(None);
    }
    let seed = flag_usize(rest, "--seu-seed", 0x5EED_05E0)? as u64;
    let burst = flag_usize(rest, "--seu-burst", 1)?.max(1);
    Ok(Some(pfdbg_emu::SeuConfig { rate, burst, seed }))
}

/// Assemble an [`OnlineReconfigurator`] over a reliable in-memory
/// channel, or over one injecting transport faults and upsets when
/// chaos is configured. Turns and scrub repairs commit under `policy`.
fn build_online(
    scg: pfdbg_pconf::Scg,
    layout: pfdbg_arch::BitstreamLayout,
    icap: pfdbg_arch::IcapModel,
    fault: Option<pfdbg_emu::IcapFaultConfig>,
    policy: pfdbg_pconf::CommitPolicy,
    seu: Option<pfdbg_emu::SeuConfig>,
) -> OnlineReconfigurator {
    let image = Arc::new(scg.generalized().base.clone());
    let channel = pfdbg_emu::channel_stack(image, layout.frame_bits, seu, fault);
    let attempts = pfdbg_pconf::ScrubPolicy::default().max_repair_attempts;
    let session = pfdbg_pconf::Session::new(&scg, channel, policy, attempts);
    OnlineReconfigurator::with_session(scg, layout, icap, session)
}

fn load_design(rest: &[String]) -> Result<(String, Network), String> {
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("expected a design file or @benchmark")?;
    if let Some(name) = path.strip_prefix('@') {
        let nw = pfdbg_circuits::build(name)
            .ok_or_else(|| format!("unknown benchmark {name:?} (see bench-list)"))?;
        return Ok((name.to_string(), nw));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let nw = if path.ends_with(".v") || path.ends_with(".sv") {
        pfdbg_netlist::verilog::parse(&text).map_err(|e| e.to_string())?
    } else {
        blif::parse(&text).map_err(|e| e.to_string())?
    };
    Ok((path.clone(), nw))
}

/// The artifact store selected by `--store-dir <dir>` / `--no-store`.
/// Defaults to `.pfdbg-store` in the working directory; `None` means
/// the flow runs uncached.
fn store_from_flags(rest: &[String]) -> Result<Option<ArtifactStore>, String> {
    if rest.iter().any(|a| a == "--no-store") {
        return Ok(None);
    }
    let dir = flag(rest, "--store-dir").unwrap_or_else(|| ".pfdbg-store".into());
    ArtifactStore::open(dir).map(Some)
}

fn icfg(rest: &[String]) -> Result<InstrumentConfig, String> {
    Ok(InstrumentConfig {
        n_ports: flag_usize(rest, "--ports", 4)?,
        coverage: flag_usize(rest, "--coverage", 1)?,
        max_signals: match flag(rest, "--max-signals") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| "--max-signals expects a number".to_string())?),
        },
    })
}

fn cmd_instrument(rest: &[String]) -> Result<(), String> {
    let (name, nw) = load_design(rest)?;
    let inst = instrument(&nw, &icfg(rest)?);
    let blif_text = blif::write(&inst.network);
    let par_text = inst.annotations.write();
    match flag(rest, "--out") {
        Some(path) => std::fs::write(&path, blif_text).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{blif_text}"),
    }
    if let Some(path) = flag(rest, "--par") {
        std::fs::write(&path, par_text).map_err(|e| format!("{path}: {e}"))?;
    }
    pfdbg_obs::diag(&format!(
        "instrumented {name}: {} observable signals, {} ports, {} parameters",
        inst.observable().len(),
        inst.ports.len(),
        inst.n_params()
    ));
    Ok(())
}

fn cmd_report(rest: &[String]) -> Result<(), String> {
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("expected a trace file (produced by --trace-out)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let events = pfdbg_obs::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", pfdbg_obs::summarize(&events));
    Ok(())
}

fn cmd_compare(rest: &[String]) -> Result<(), String> {
    let (name, nw) = load_design(rest)?;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let mut cfg = icfg(rest)?;
    if flag(rest, "--coverage").is_none() {
        cfg.coverage = 2; // paper density by default for comparisons
    }
    let cmp = compare_mappers(&name, &nw, &cfg, k)?;
    let mut t = pfdbg_util::table::Table::new([
        "Benchmark",
        "#Gate",
        "Initial",
        "SM",
        "ABC",
        "Proposed(TLUT/TCON)",
    ]);
    t.row([
        cmp.name.clone(),
        cmp.gates.to_string(),
        cmp.initial_luts.to_string(),
        cmp.sm_luts.to_string(),
        cmp.abc_luts.to_string(),
        format!("{}({}/{})", cmp.proposed_luts, cmp.tluts, cmp.tcons),
    ]);
    print!("{}", t.render());
    println!(
        "\ndepths: golden {} | SM {} | ABC {} | proposed {}   reduction {:.2}x",
        cmp.depth_golden,
        cmp.depth_sm,
        cmp.depth_abc,
        cmp.depth_proposed,
        cmp.reduction_factor()
    );
    Ok(())
}

/// Write the params=0 default specialization as a loadable file when
/// `--dump-bitstream` asks for one (shared by the cold and cached
/// offline paths).
fn dump_bitstream(
    rest: &[String],
    scg: &pfdbg_pconf::Scg,
    layout: &pfdbg_arch::BitstreamLayout,
) -> Result<(), String> {
    if let Some(path) = flag(rest, "--dump-bitstream") {
        let params = pfdbg_util::BitVec::zeros(scg.generalized().n_params);
        let bs = scg.specialize(&params);
        let bytes = pfdbg_arch::bitfile::write(&bs, layout.frame_bits);
        std::fs::write(&path, &bytes).map_err(|e| format!("{path}: {e}"))?;
        println!("  wrote default specialization to {path} ({} bytes)", bytes.len());
    }
    Ok(())
}

fn cmd_offline(rest: &[String]) -> Result<(), String> {
    let (name, nw) = load_design(rest)?;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let (_, _, inst) = prepare_instrumented(&nw, &icfg(rest)?, k)?;
    let cfg = OfflineConfig { k, ..Default::default() };
    let store = store_from_flags(rest)?;

    // Cache hit: the artifact carries everything the summary (and
    // --dump-bitstream) needs; the detailed place & route statistics
    // only exist on a fresh compile.
    if let Some(store) = &store {
        let key = ArtifactStore::fingerprint(&inst, &cfg);
        match store.load(&key) {
            Ok(Some(d)) => {
                println!("offline generic stage for {name} (cached artifact {key}):");
                println!(
                    "  mapping: {} LUTs + {} TLUTs + {} TCONs, depth {}",
                    d.map_stats.luts, d.map_stats.tluts, d.map_stats.tcons, d.map_stats.depth
                );
                println!(
                    "  bitstream: {} bits in {} frames; {} parameterized bits ({:.3}%)",
                    d.layout.n_bits,
                    d.layout.n_frames(),
                    d.scg.generalized().n_tunable(),
                    d.scg.generalized().tunable_fraction() * 100.0
                );
                println!("  (cache hit — run with --no-store for full place&route detail)");
                return dump_bitstream(rest, &d.scg, &d.layout);
            }
            Ok(None) => {}
            Err(e) => pfdbg_obs::diag(&format!("discarding invalid artifact: {e}")),
        }
    }

    let off = offline(&inst, &cfg)?;
    println!("offline generic stage for {name}:");
    println!(
        "  mapping: {} LUTs + {} TLUTs + {} TCONs, depth {}",
        off.map_stats.luts, off.map_stats.tluts, off.map_stats.tcons, off.map_stats.depth
    );
    if let (Some(t), Some(scg), Some(layout)) = (&off.tpar, &off.scg, &off.layout) {
        println!(
            "  place&route: {} CLBs, {} nets ({} tunable), {} wires, {} switches, {:?}",
            t.stats.n_clbs,
            t.stats.n_nets,
            t.stats.n_tunable_nets,
            t.stats.wires_used,
            t.stats.n_switches,
            t.stats.runtime
        );
        println!(
            "  bitstream: {} bits in {} frames; {} parameterized bits ({:.3}%)",
            layout.n_bits,
            layout.n_frames(),
            scg.generalized().n_tunable(),
            scg.generalized().tunable_fraction() * 100.0
        );
        if let Ok(timing) =
            pfdbg_pr::analyze_timing(&off.mapped, &off.kinds, t, &pfdbg_pr::DelayModel::default())
        {
            println!(
                "  timing: critical path {:.2} ns over {} LUT levels",
                timing.critical_delay, timing.levels
            );
        }
        let congestion =
            pfdbg_pr::analyze_congestion(&t.packed, &t.routed, &t.rrg, t.stats.channel_width);
        println!(
            "  congestion: peak channel {:.0}%, mean {:.0}%, tunable share {:.0}%",
            congestion.peak_utilization * 100.0,
            congestion.mean_utilization * 100.0,
            congestion.tunable_share * 100.0
        );
        dump_bitstream(rest, scg, layout)?;
    }
    if let (Some(store), Some(scg), Some(layout)) = (&store, &off.scg, &off.layout) {
        let key = ArtifactStore::fingerprint(&inst, &cfg);
        let path = store
            .save(&key, &pfdbg_store::Artifact::capture(&inst, &off.map_stats, layout, scg))?;
        pfdbg_obs::diag(&format!("stored compiled artifact at {}", path.display()));
    }
    Ok(())
}

fn cmd_observe(rest: &[String]) -> Result<(), String> {
    let (name, nw) = load_design(rest)?;
    let signals_arg = flag(rest, "--signals").ok_or("--signals s1,s2,...|auto is required")?;
    let cycles = flag_usize(rest, "--cycles", 32)?;
    let k = flag_usize(rest, "--k", PAPER_K)?;

    let (_, _, inst) = prepare_instrumented(&nw, &icfg(rest)?, k)?;
    // `auto` observes the first signal of every trace port — a guaranteed
    // feasible selection, useful for smoke runs and for discovering what
    // the instrumented design can see.
    let wanted: Vec<String> = if signals_arg == "auto" {
        inst.ports.iter().filter_map(|p| p.signals.first().cloned()).collect()
    } else {
        signals_arg.split(',').map(str::to_string).collect()
    };
    let wanted: Vec<&str> = wanted.iter().map(String::as_str).collect();
    let cfg = OfflineConfig { k, ..Default::default() };
    let (fault, policy) = chaos_from_flags(rest)?;
    let online = match store_from_flags(rest)? {
        Some(store) => {
            let (d, outcome) = store.offline_cached(&inst, &cfg)?;
            pfdbg_obs::diag(match outcome {
                CacheOutcome::Hit => "artifact store: hit (offline flow skipped)",
                CacheOutcome::Miss => "artifact store: miss (compiled and stored)",
            });
            Some(build_online(d.scg, d.layout, d.icap, fault, policy, None))
        }
        None => {
            let off = offline(&inst, &cfg)?;
            match (off.scg, off.layout) {
                (Some(scg), Some(layout)) => {
                    Some(build_online(scg, layout, off.icap, fault, policy, None))
                }
                _ => None,
            }
        }
    };
    let dut = inst.network.clone();
    let mut session = DebugSession::new(inst, online);
    let wf = session.observe(&dut, &wanted, cycles, 0xD0, &[])?;
    println!("captured {} cycles of {name}:", wf.n_samples());
    print!("{}", wf.render_ascii());
    if let Some(turn) = session.turns().last() {
        if let Some(stats) = &turn.stats {
            println!(
                "turn cost: {} bits / {} frames changed; eval {:?} + transfer {:?} + verify {:?} \
                 ({} retries, {} degradations)",
                stats.bits_changed,
                stats.frames_changed,
                stats.eval_time,
                stats.transfer_time,
                stats.verify_time,
                stats.retries,
                stats.degradations
            );
        }
    }
    Ok(())
}

fn cmd_rank(rest: &[String]) -> Result<(), String> {
    let (name, nw) = load_design(rest)?;
    let top = flag_usize(rest, "--top", 20)?;
    println!("top {top} debug-critical signals of {name}:");
    for r in rank_signals(&nw).into_iter().take(top) {
        println!("  {:<24} score {:.3}", r.name, r.score);
    }
    Ok(())
}

fn cmd_localize(rest: &[String]) -> Result<(), String> {
    use pfdbg_emu::{apply_static, injectable_nets, lockstep, Fault};
    use pfdbg_netlist::truth::gates;

    let (name, nw) = load_design(rest)?;
    let cycles = flag_usize(rest, "--cycles", 256)?;
    let inst = instrument(&nw, &icfg(rest)?);
    let clean = inst.network.clone();

    // Pick (or accept) a victim net and break it.
    let victim = match flag(rest, "--bug") {
        Some(v) => v,
        None => {
            let nets = injectable_nets(&clean);
            if nets.is_empty() {
                return Err("design has no injectable nets".into());
            }
            clean.node(nets[nets.len() / 2]).name.clone()
        }
    };
    let victim_id = clean.find(&victim).ok_or_else(|| format!("no net {victim}"))?;
    let arity = clean.node(victim_id).fanins.len();
    let table = match arity {
        1 => gates::not1(),
        2 => gates::nand2(),
        n => return Err(format!("{victim} has arity {n}; pick a 1- or 2-input gate")),
    };
    let buggy = apply_static(&clean, &Fault::WrongGate { net: victim.clone(), table })?;
    println!("injected a WrongGate bug at {victim} in {name}");

    let report = lockstep(&clean, &buggy, cycles, 7)?;
    let Some((cycle, output)) = report.first_divergence else {
        println!("stimulus never excites the bug; try more --cycles");
        return Ok(());
    };
    println!("output {output} diverges first at cycle {cycle}; localizing...");

    let mut session = DebugSession::new(inst, None);
    let loc = pfdbg_core::localize(&mut session, &clean, &buggy, &output, cycles, 7)?;
    for (sig, bad) in &loc.observations {
        println!("  turn: observed {sig:<20} -> {}", if *bad { "MISMATCH" } else { "ok" });
    }
    println!(
        "suspect: {} ({} turns, 0 recompiles){}",
        loc.suspect,
        loc.turns_used,
        if loc.suspect == victim { "  [exact hit]" } else { "" }
    );
    Ok(())
}

fn cmd_scrub(rest: &[String]) -> Result<(), String> {
    let (name, nw) = load_design(rest)?;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let turns = flag_usize(rest, "--turns", 50)?;
    let scrub_every = flag_usize(rest, "--scrub-every", 5)?.max(1);
    let (_, _, inst) = prepare_instrumented(&nw, &icfg(rest)?, k)?;
    let cfg = OfflineConfig { k, ..Default::default() };
    let (scg, layout, icap) = match store_from_flags(rest)? {
        Some(store) => {
            let (d, _) = store.offline_cached(&inst, &cfg)?;
            (d.scg, d.layout, d.icap)
        }
        None => {
            let off = offline(&inst, &cfg)?;
            let scg = off.scg.ok_or("offline flow produced no SCG")?;
            let layout = off.layout.ok_or("offline flow produced no layout")?;
            (scg, layout, off.icap)
        }
    };

    let (fault, policy) = chaos_from_flags(rest)?;
    // A scrub demo with nothing to scrub is pointless: default the
    // upset rate up when neither the flag nor the environment set one.
    let seu = seu_from_flags(rest)?.unwrap_or(pfdbg_emu::SeuConfig {
        rate: 0.02,
        burst: 2,
        seed: 0x5EED_05E0,
    });
    let n_params = inst.annotations.len();
    let mut online = build_online(scg, layout, icap, fault, policy, Some(seu));

    println!(
        "scrub demo on {name}: {turns} turns, SEU rate {} (burst {}, seed {:#x}), \
         scrub every {scrub_every} turns",
        seu.rate, seu.burst, seu.seed
    );
    let mut rollbacks = 0usize;
    for t in 0..turns {
        // Walk a deterministic parameter schedule: toggle one select
        // bit per turn, like an engineer cycling through signals.
        let mut params = online.params().clone();
        if n_params > 0 {
            let bit = t % n_params;
            params.set(bit, !params.get(bit));
        }
        online.tick();
        if online.try_apply(&params).is_err() {
            rollbacks += 1;
        }
        if (t + 1) % scrub_every == 0 {
            let r = online.scrub()?;
            if r.upset_frames > 0 {
                println!(
                    "  turn {:>4}: {} upset frames ({} bits) — {} repaired, {} quarantined",
                    t + 1,
                    r.upset_frames,
                    r.upset_bits,
                    r.repaired_frames,
                    r.quarantined_frames
                );
            }
        }
    }
    let _ = online.scrub()?;
    let scrubber = online.scrubber();
    let totals = scrubber.totals();
    println!(
        "scrubbed: {} passes, {} upset frames ({} bits), {} repaired, {} quarantined, {} rollbacks",
        totals.passes,
        totals.upset_frames,
        totals.upset_bits,
        totals.repaired_frames,
        scrubber.quarantined().len(),
        rollbacks
    );
    println!("health: {}", scrubber.health().as_str());
    let undetected = online.undetected_divergence();
    if undetected.is_empty() {
        println!("undetected divergence: none — device matches the PConf golden oracle");
        Ok(())
    } else {
        Err(format!("undetected divergence in frames {undetected:?}"))
    }
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    use pfdbg_serve::session::Engine;
    use pfdbg_serve::{FleetOptions, Server, ServerConfig, SessionManager};

    let (name, nw) = load_design(rest)?;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let (_, _, inst) = prepare_instrumented(&nw, &icfg(rest)?, k)?;
    let cfg = OfflineConfig { k, ..Default::default() };
    let (scg, layout, icap) = match store_from_flags(rest)? {
        Some(store) => {
            let (d, outcome) = store.offline_cached(&inst, &cfg)?;
            pfdbg_obs::diag(match outcome {
                CacheOutcome::Hit => "artifact store: hit (offline flow skipped)",
                CacheOutcome::Miss => "artifact store: miss (compiled and stored)",
            });
            (d.scg, d.layout, d.icap)
        }
        None => {
            let off = offline(&inst, &cfg)?;
            let scg = off.scg.ok_or("offline flow produced no SCG")?;
            let layout = off.layout.ok_or("offline flow produced no layout")?;
            (scg, layout, off.icap)
        }
    };

    let n_params = inst.annotations.len();
    let workers = flag_usize(rest, "--workers", 8)?;
    let cache = flag_usize(rest, "--cache", 64)?;
    let addr = match (flag(rest, "--addr"), flag(rest, "--port")) {
        (Some(a), _) => a,
        (None, Some(p)) => format!("127.0.0.1:{p}"),
        (None, None) => "127.0.0.1:0".into(),
    };
    let (fault, policy) = chaos_from_flags(rest)?;
    let seu = seu_from_flags(rest)?;
    let scrub_interval_ms = flag_f64(rest, "--scrub-interval", 0.0)?;
    // Fleet shape: 0 takes the defaults (`PFDBG_SHARDS`, else 4 shards;
    // 1024-job inboxes).
    let shards = flag_usize(rest, "--shards", 0)?;
    let inbox_cap = flag_usize(rest, "--inbox-cap", 0)?;
    // Device fleet: `--devices N` serves over N supervised primaries
    // plus `--spares` hot spares (health ladders, watchdogs, and
    // journal-backed failover); without it, one unsupervised device.
    let devices = flag_usize(rest, "--devices", 0)?;
    let spares = flag_usize(rest, "--spares", 1)?;
    let engine = Arc::new(Engine::new(inst, scg, layout, icap));
    let scrub_policy = pfdbg_pconf::ScrubPolicy { commit: policy, ..Default::default() };
    let fleet = FleetOptions { shards, inbox_capacity: inbox_cap };
    let mut manager = if devices > 0 {
        SessionManager::with_devices(
            engine,
            cache,
            fault,
            policy,
            seu,
            scrub_policy,
            fleet,
            pfdbg_serve::DeviceOptions { devices, spares, ..Default::default() },
        )
    } else {
        SessionManager::with_fleet(engine, cache, fault, policy, seu, scrub_policy, fleet)
    };
    if let Some(dir) = flag(rest, "--journal-dir") {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
        manager.set_journal_dir(dir.clone().into());
        // Record the design's provenance so the journals are
        // self-contained (replayable by `pfdbg replay` offline). A
        // design loaded from a file stays replayable as long as the
        // file does.
        let arg = rest.first().expect("load_design checked the design arg");
        manager.set_journal_design(design_spec_of(arg)?, icfg(rest)?.coverage, k);
        println!("pfdbg serve: journaling sessions to {dir}");
    }
    let n_shards = manager.shard_count();
    let inbox_capacity = manager.inbox_capacity();
    let handle = Server::start(
        manager,
        ServerConfig {
            addr,
            workers,
            cache_capacity: cache,
            scrub_interval_ms,
            ..ServerConfig::default()
        },
    )?;
    let local = handle.local_addr();
    let (n_devices, n_primaries) = handle.sessions().device_counts();
    let fleet_note = if n_devices > 1 {
        format!(", {n_primaries} devices + {} spares", n_devices - n_primaries)
    } else {
        String::new()
    };
    println!(
        "pfdbg serve: {name} ({n_params} params) on {local}, {workers} io threads, \
         {n_shards} shards (inbox {inbox_capacity}){fleet_note}"
    );
    println!("stop with: pfdbg client {local} --shutdown");
    if let Some(path) = flag(rest, "--port-file") {
        std::fs::write(&path, format!("{}\n", local.port())).map_err(|e| format!("{path}: {e}"))?;
    }
    handle.wait();
    println!("pfdbg serve: stopped");
    Ok(())
}

/// Map a design argument to a journal [`pfdbg_replay::DesignSpec`]. `gen:SEED` is a
/// canonical small synthetic design (record/replay only); `@name` is a
/// suite benchmark; anything else is a netlist file path.
fn design_spec_of(arg: &str) -> Result<pfdbg_replay::DesignSpec, String> {
    use pfdbg_replay::DesignSpec;
    if let Some(seed) = arg.strip_prefix("gen:") {
        let seed: u64 =
            seed.parse().map_err(|_| format!("gen: expects a numeric seed, got {seed:?}"))?;
        return Ok(DesignSpec::Generated {
            n_inputs: 6,
            n_outputs: 4,
            n_gates: 24,
            depth: 4,
            n_latches: 2,
            seed,
        });
    }
    if let Some(name) = arg.strip_prefix('@') {
        return Ok(DesignSpec::Bench { name: name.to_string() });
    }
    Ok(DesignSpec::File { path: arg.to_string() })
}

/// splitmix64 step — the CLI's deterministic parameter-vector source,
/// so `record --seed S` always journals the same session.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cmd_record(rest: &[String]) -> Result<(), String> {
    use pfdbg_replay::{ChaosSpec, Recorder, SessionMeta};

    let arg = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("expected a design file, @benchmark, or gen:SEED")?;
    let out = flag(rest, "--out").ok_or("--out expects a journal path (.pfdj)")?;
    let turns = flag_usize(rest, "--turns", 8)?;
    let scrub_every = flag_usize(rest, "--scrub-every", 0)?;
    let seed = flag_usize(rest, "--seed", 0x00C0_FFEE)? as u64;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let icfg = icfg(rest)?;
    let (fault, policy) = chaos_from_flags(rest)?;
    let seu = seu_from_flags(rest)?;
    let scrub_policy = pfdbg_pconf::ScrubPolicy { commit: policy, ..Default::default() };
    let meta = SessionMeta {
        session: flag(rest, "--session").unwrap_or_else(|| "cli".into()),
        derive_seeds: false,
        design: design_spec_of(arg)?,
        ports: icfg.n_ports,
        coverage: icfg.coverage,
        k,
        n_params: 0, // the recorder fills this from the built design
        chaos: ChaosSpec::from_parts(fault, seu, &policy, &scrub_policy),
        threads: 0,
        note: format!("pfdbg record {arg} --seed {seed}"),
    };
    let mut rec = Recorder::create(&meta, std::path::Path::new(&out))?;
    let n = rec.n_params();
    let mut state = seed;
    for t in 0..turns {
        if scrub_every > 0 && t % scrub_every == scrub_every - 1 {
            let s = rec.scrub()?;
            println!(
                "scrub:   {} frames checked, {} upset, {} repaired",
                s.frames_checked, s.upset_frames, s.repaired_frames
            );
        }
        let mut params = pfdbg_util::BitVec::zeros(n);
        for i in 0..n {
            if splitmix64(&mut state) & 1 == 1 {
                params.set(i, true);
            }
        }
        let f = rec.select(&params)?;
        println!(
            "turn {t:3}: {:?} bits_changed={} frames_changed={} retries={} seu_flips={}",
            f.outcome, f.bits_changed, f.frames_changed, f.retries, f.seu_flips
        );
    }
    rec.finish()?;
    println!("recorded {turns} turns ({n} params) to {out}");
    Ok(())
}

fn cmd_replay(rest: &[String]) -> Result<(), String> {
    let path =
        rest.first().filter(|a| !a.starts_with("--")).ok_or("expected a journal path (.pfdj)")?;
    let report = pfdbg_replay::verify_path(std::path::Path::new(path))?;
    let torn = if report.torn { " (torn tail skipped)" } else { "" };
    println!(
        "replay {path}: session {:?}, {} records, {} turns, {} scrubs{torn}",
        report.session, report.records, report.turns, report.scrubs
    );
    match &report.divergence {
        None => {
            println!("bit-identical");
            Ok(())
        }
        Some(d) => Err(format!("replay diverged: {d}")),
    }
}

fn cmd_fuzz(rest: &[String]) -> Result<(), String> {
    let cases = flag_usize(rest, "--cases", 64)?;
    let seed = flag_usize(rest, "--seed", 0xD1FF)? as u64;
    let corpus = flag(rest, "--corpus-dir");
    if let Some(dir) = &corpus {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    }
    let pairs = pfdbg_replay::default_pairs();
    let report = pfdbg_replay::run_suite(
        cases,
        seed,
        &pairs,
        corpus.as_deref().map(std::path::Path::new),
        |c| match &c.divergence {
            None => println!("case {:#06x} {:24} {} ops: ok", c.seed, c.pair, c.ops),
            Some(d) => {
                println!("case {:#06x} {:24} {} ops: DIVERGED at {}", c.seed, c.pair, c.ops, d);
                if let Some(p) = &c.corpus_path {
                    println!("  minimal journal: {}", p.display());
                }
            }
        },
    )?;
    let diverged = report.divergences();
    println!("fuzz: {} cases, {diverged} divergences", report.cases.len());
    if diverged > 0 {
        return Err(format!("{diverged} differential divergences (see corpus)"));
    }
    Ok(())
}

fn cmd_client(rest: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let addr = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("expected a server address (host:port)")?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = BufReader::new(stream);

    // One request line out, one reply line in; prints the reply and
    // reports whether the server said ok.
    let mut roundtrip = |line: &str| -> Result<bool, String> {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| format!("recv: {e}"))?;
        if reply.is_empty() {
            return Err("server closed the connection".into());
        }
        print!("{reply}");
        let events = pfdbg_obs::parse_jsonl(&reply).map_err(|e| format!("bad reply: {e}"))?;
        Ok(events.first().and_then(|ev| ev.fields.get("ok"))
            == Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)))
    };

    let mut requests: Vec<String> = Vec::new();
    if let Some(r) = flag(rest, "--request") {
        requests.push(r);
    }
    if rest.iter().any(|a| a == "--shutdown") {
        requests.push("{\"op\":\"shutdown\"}".into());
    }
    if requests.is_empty() {
        // Interactive mode: JSONL requests on stdin, replies on stdout.
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| format!("stdin: {e}"))?;
            if line.trim().is_empty() {
                continue;
            }
            roundtrip(&line)?;
        }
        return Ok(());
    }
    let mut all_ok = true;
    for r in &requests {
        all_ok &= roundtrip(r)?;
    }
    if all_ok {
        Ok(())
    } else {
        Err("server replied with an error".into())
    }
}

/// `pfdbg top` — a live fleet dashboard over the `metrics` verb: polls
/// the server, parses the embedded registry JSONL, and renders fleet
/// counters, latency percentiles, SLO burn, and a per-session table
/// (with turns/s derived from successive polls). `--iters N` bounds the
/// number of refreshes (for scripts); `--no-clear` appends frames
/// instead of redrawing in place.
fn cmd_top(rest: &[String]) -> Result<(), String> {
    use std::collections::BTreeMap;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let addr = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("expected a server address (host:port)")?;
    let interval_ms = flag_f64(rest, "--interval", 1000.0)?;
    let iters = flag_usize(rest, "--iters", 0)?;
    let clear = !rest.iter().any(|a| a == "--no-clear");

    let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = BufReader::new(stream);

    // Previous poll's per-session turn counters, for turns/s.
    let mut prev: Option<(std::time::Instant, BTreeMap<String, f64>)> = None;
    let mut round = 0usize;
    loop {
        writer
            .write_all(b"{\"op\":\"metrics\"}\n")
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| format!("recv: {e}"))?;
        if reply.is_empty() {
            return Err("server closed the connection".into());
        }
        let events = pfdbg_obs::parse_jsonl(&reply).map_err(|e| format!("bad reply: {e}"))?;
        let ev = events.first().ok_or("empty reply")?;
        if ev.fields.get("ok") != Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)) {
            return Err(format!("server error: {}", ev.str("error").unwrap_or("unknown")));
        }
        let body = ev.str("metrics").ok_or("reply lacks a metrics field")?;
        let registry = pfdbg_obs::parse_jsonl(body).map_err(|e| format!("bad registry: {e}"))?;
        let now = std::time::Instant::now();
        let elapsed =
            prev.as_ref().map(|(t0, counts)| (now.duration_since(*t0).as_secs_f64(), counts));
        render_top(addr, &registry, elapsed, clear);

        let mut counts = BTreeMap::new();
        for e in &registry {
            if e.kind() == "session" {
                if let (Some(name), Some(turns)) = (e.str("name"), e.num("turns")) {
                    counts.insert(name.to_string(), turns);
                }
            }
        }
        prev = Some((now, counts));
        round += 1;
        if iters != 0 && round >= iters {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64((interval_ms / 1e3).max(0.0)));
    }
}

/// One `pfdbg top` frame from a parsed registry snapshot.
fn render_top(
    addr: &str,
    registry: &[pfdbg_obs::jsonl::Event],
    prev: Option<(f64, &std::collections::BTreeMap<String, f64>)>,
    clear: bool,
) {
    let find = |kind: &str, name: &str| {
        registry.iter().find(|e| e.kind() == kind && e.str("name") == Some(name))
    };
    let counter = |name: &str| find("counter", name).and_then(|e| e.num("value")).unwrap_or(0.0);
    let p99 = |name: &str| find("hist", name).and_then(|e| e.num("p99_us")).unwrap_or(0.0);
    let slo = |name: &str| {
        find("slo", name)
            .map_or((0.0, 0.0), |e| (e.num("burned").unwrap_or(0.0), e.num("total").unwrap_or(0.0)))
    };

    if clear {
        print!("\x1b[2J\x1b[H");
    }
    let sessions: Vec<_> = registry.iter().filter(|e| e.kind() == "session").collect();
    println!("pfdbg top — {addr} ({} sessions)", sessions.len());
    let hits = counter("serve.cache_hits");
    let misses = counter("serve.cache_misses");
    let hit_pct = if hits + misses > 0.0 { 100.0 * hits / (hits + misses) } else { 0.0 };
    println!(
        "fleet  {:>8} req  {:>8} turns  cache {hit_pct:5.1}%  retries {}  rollbacks {}",
        counter("serve.requests"),
        counter("serve.turns"),
        counter("serve.icap_retries"),
        counter("serve.icap_rollbacks"),
    );
    println!(
        "lat    specialize p99 {:9.1} µs  turn p99 {:9.1} µs  request p99 {:9.1} µs",
        p99("scg.specialize_us"),
        p99("serve.turn_us"),
        p99("serve.request_us"),
    );
    println!(
        "load   shed {:>8}  panics {:>4}  inbox wait p99 {:9.1} µs",
        counter("serve.shed_total"),
        counter("serve.handler_panics"),
        p99("serve.inbox_wait_us"),
    );
    let (sb, st) = slo("slo.specialize_us");
    let (tb, tt) = slo("slo.turn_us");
    let (cb, ct) = slo("slo.scrub_interval_us");
    let (ib, it) = slo("slo.inbox_wait_us");
    println!(
        "slo    specialize {sb:.0}/{st:.0} burned  turn {tb:.0}/{tt:.0}  scrub {cb:.0}/{ct:.0}  \
         inbox {ib:.0}/{it:.0}"
    );
    println!(
        "scrub  {} passes  {} frames repaired  {} quarantined",
        counter("serve.scrub_passes"),
        counter("serve.scrub_repairs"),
        counter("serve.scrub_quarantined"),
    );
    let devices: Vec<_> = registry.iter().filter(|e| e.kind() == "device").collect();
    if !devices.is_empty() {
        println!(
            "devs   migrations {:.0} ({:.1} ms p99)  watchdog trips {:.0}  failed {:.0}  \
             sessions migrated {:.0} / lost {:.0}",
            counter("serve.migrations"),
            // MIGRATION_MS records milliseconds, so the registry's
            // "p99_us" field is already in ms here.
            p99("serve.migration_ms"),
            counter("serve.watchdog_trips"),
            counter("serve.device_failures"),
            counter("serve.sessions_migrated"),
            counter("serve.sessions_lost"),
        );
        println!();
        println!(
            "{:<8} {:<8} {:<8} {:<12} {:>8} {:>10} {:>6}",
            "DEVICE", "ROLE", "MODE", "HEALTH", "SESSIONS", "WRITES", "DRAIN"
        );
        for d in &devices {
            println!(
                "{:<8} {:<8} {:<8} {:<12} {:>8} {:>10} {:>6}",
                d.str("name").unwrap_or("?"),
                d.str("role").unwrap_or("?"),
                d.str("mode").unwrap_or("?"),
                d.str("health").unwrap_or("?"),
                d.num("sessions").unwrap_or(0.0),
                d.num("writes").unwrap_or(0.0),
                if d.fields.get("draining") == Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)) {
                    "yes"
                } else {
                    "no"
                },
            );
        }
    }
    println!();
    println!(
        "{:<16} {:>8} {:>8} {:<10} {:>6} {:>7} {:>6} {:>7}",
        "SESSION", "TURNS", "TURNS/S", "HEALTH", "RESYNC", "SCRUBS", "QUAR", "EVENTS"
    );
    for s in &sessions {
        let name = s.str("name").unwrap_or("?");
        let turns = s.num("turns").unwrap_or(0.0);
        let rate = prev
            .and_then(|(dt, counts)| {
                let before = counts.get(name)?;
                (dt > 0.0).then(|| (turns - before).max(0.0) / dt)
            })
            .map_or("-".to_string(), |r| format!("{r:.1}"));
        println!(
            "{name:<16} {turns:>8} {rate:>8} {:<10} {:>6} {:>7} {:>6} {:>7}",
            s.str("health").unwrap_or("?"),
            if s.fields.get("needs_resync") == Some(&pfdbg_obs::jsonl::JsonValue::Bool(true)) {
                "yes"
            } else {
                "no"
            },
            s.num("scrubs").unwrap_or(0.0),
            s.num("quarantined").unwrap_or(0.0),
            s.num("flight_events").unwrap_or(0.0),
        );
    }
}
