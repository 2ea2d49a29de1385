//! `pfdbg` — command-line driver for the parameterized FPGA debugging
//! flow.
//!
//! ```text
//! pfdbg instrument <design> [--ports N] [--coverage C] [--out inst.blif] [--par inst.par]
//! pfdbg compare    <design> [--k K] [--ports N] [--coverage C]
//! pfdbg offline    <design> [--k K] [--ports N]
//! pfdbg observe    <design> --signals s1,s2|auto [--cycles N]
//! pfdbg rank       <design> [--top N]
//! pfdbg report     <trace.jsonl>
//! pfdbg scrub      <design> [--turns N] [--scrub-every N] [--seu-rate R]
//! pfdbg serve      <design> [--addr H:P|--port P] [--workers N] [--shards N] [--devices N] [--spares N] [--port-file f]
//! pfdbg client     <host:port> [--request '<json>'] [--shutdown]
//! pfdbg bench-list
//! ```
//!
//! `<design>` is a netlist file (`.blif`, or `.v`/`.sv` for Verilog),
//! `@name` a generated benchmark from the calibrated suite (e.g.
//! `@stereov.`, `@clma`), or `gen:SEED` the small generated design of
//! that seed — parsed and loaded by [`DesignSpec`] for every command.
//!
//! Commands that run the offline flow (`offline`, `observe`, `scrub`,
//! `serve`) go through the content-addressed artifact store by default
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
    compare_mappers, instrument, offline, prepare_instrumented, rank_signals, CompiledDesign,
    DebugSession, InstrumentConfig, Instrumented, OfflineConfig, PAPER_K,
};
use pfdbg_emu::{IcapFaultConfig, SeuConfig};
use pfdbg_netlist::{blif, Network};
use pfdbg_replay::{ChaosSpec, DesignSpec};
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
         \x20 pfdbg instrument <design> [--ports N] [--coverage C] [--out f.blif] [--par f.par]\n\
         \x20 pfdbg compare    <design> [--k K] [--ports N] [--coverage C]\n\
         \x20 pfdbg offline    <design> [--k K] [--ports N] [--dump-bitstream f.pfb]\n\
         \x20 pfdbg observe    <design> --signals s1,s2|auto [--cycles N]\n\
         \x20                  [--icap-fault-rate R] [--icap-seed S] [--max-retries N]\n\
         \x20                  (no upsets: refuses --seu-*, ignores PFDBG_SEU_RATE; see scrub)\n\
         \x20 pfdbg rank       <design> [--top N]\n\
         \x20 pfdbg localize   <design> [--bug <net>] [--cycles N]\n\
         \x20 pfdbg report     <trace.jsonl>\n\
         \x20 pfdbg scrub      <design> [--turns N] [--scrub-every N]\n\
         \x20                  [--seu-rate R] [--seu-seed S] [--seu-burst B] [--icap-fault-rate R]\n\
         \x20 pfdbg serve      <design> [--addr H:P|--port P] [--workers N] [--cache N] [--port-file f]\n\
         \x20                  [--shards N] [--inbox-cap N] (session-owning shard threads; bounded inboxes)\n\
         \x20                  [--icap-fault-rate R] [--icap-seed S] [--max-retries N]\n\
         \x20                  [--scrub-interval MS] [--seu-rate R] [--seu-seed S] [--seu-burst B]\n\
         \x20                  [--journal-dir DIR] (record every session; restore on restart)\n\
         \x20                  [--devices N] [--spares N] (supervised device fleet with failover)\n\
         \x20 pfdbg record     <design> --out <f.pfdj> [--turns N] [--seed S]\n\
         \x20                  [--scrub-every N] [--session NAME] [chaos flags as for serve]\n\
         \x20 pfdbg replay     <journal.pfdj> (exit 1 on divergence)\n\
         \x20 pfdbg fuzz       [--cases N] [--seed S] [--corpus-dir DIR] (differential turn fuzzer)\n\
         \x20 pfdbg client     <host:port> [--request '<json>'] [--shutdown]\n\
         \x20 pfdbg top        <host:port> [--interval MS] [--iters N] [--no-clear]\n\
         \x20 pfdbg bench-list\n\
         \n\
         global flags: --profile (span report on exit), --trace-out <f.jsonl>\n\
         store flags (offline/observe/scrub/serve): --store-dir <dir> (default .pfdbg-store), --no-store\n\
         <design> is a netlist (.blif, or .v/.sv for Verilog), @name a benchmark of the\n\
         \x20 calibrated suite, or gen:SEED the small generated design of that seed."
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

/// The chaos flags of `observe`, `scrub`, `serve` and `record` as one
/// [`ChaosSpec`]: ICAP transport faults (`--icap-fault-rate` with
/// `--icap-seed`, falling back to `PFDBG_ICAP_FAULT_RATE`), upsets (an
/// explicit `--seu-rate` with `--seu-seed`/`--seu-burst` wins,
/// `PFDBG_SEU_RATE` is the fallback, and an explicit rate of 0 disables
/// injection even when the environment is set) and the commit retry
/// budget (`--max-retries`). `observe` refuses the `--seu-*` flags and
/// drops the upsets, `PFDBG_SEU_RATE`'s included.
fn chaos_from_flags(rest: &[String]) -> Result<ChaosSpec, String> {
    let rate = flag_f64(rest, "--icap-fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--icap-fault-rate expects a rate in [0, 1], got {rate}"));
    }
    let seed = flag_usize(rest, "--icap-seed", 0x1CAB_FA17)? as u64;
    let fault = if rate > 0.0 {
        Some(IcapFaultConfig::uniform(rate, seed))
    } else {
        IcapFaultConfig::from_env()
    };
    let seu = match flag(rest, "--seu-rate") {
        None => SeuConfig::from_env(),
        Some(rate) => {
            let rate: f64 =
                rate.parse().map_err(|_| format!("--seu-rate expects a number, got {rate:?}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("--seu-rate expects a rate in [0, 1], got {rate}"));
            }
            let seed = flag_usize(rest, "--seu-seed", 0x5EED_05E0)? as u64;
            let burst = flag_usize(rest, "--seu-burst", 1)?.max(1);
            (rate > 0.0).then_some(SeuConfig { rate, burst, seed })
        }
    };
    let reliable = ChaosSpec::reliable();
    let max_retries = flag_usize(rest, "--max-retries", reliable.max_retries as usize)? as u32;
    Ok(ChaosSpec { fault, seu, max_retries, ..reliable })
}

/// The design argument (a netlist path, `@bench` or `gen:SEED`).
fn design_arg(rest: &[String]) -> Result<&str, String> {
    rest.first()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .ok_or_else(|| "expected a design file, @benchmark or gen:SEED".into())
}

/// The design argument's display name and network, through the one
/// design front end, [`DesignSpec`].
fn load_network(rest: &[String]) -> Result<(String, Network), String> {
    let arg = design_arg(rest)?;
    let network = DesignSpec::parse(arg)?.network()?;
    Ok((arg.strip_prefix('@').unwrap_or(arg).to_string(), network))
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

/// The compiled design of `inst`: through the artifact store, with a
/// diagnostic saying whether it hit, or straight from the offline flow
/// under `--no-store`.
fn compile(rest: &[String], inst: Instrumented, k: usize) -> Result<CompiledDesign, String> {
    let cfg = OfflineConfig { k, ..Default::default() };
    let Some(store) = store_from_flags(rest)? else {
        return CompiledDesign::compile(inst, &cfg);
    };
    let (design, outcome) = store.offline_cached(&inst, &cfg)?;
    pfdbg_obs::diag(match outcome {
        CacheOutcome::Hit => "artifact store: hit (offline flow skipped)",
        CacheOutcome::Miss => "artifact store: miss (compiled and stored)",
    });
    Ok(design)
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
    let (name, nw) = load_network(rest)?;
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
    let (name, nw) = load_network(rest)?;
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
fn dump_bitstream(rest: &[String], design: &CompiledDesign) -> Result<(), String> {
    if let Some(path) = flag(rest, "--dump-bitstream") {
        let params = pfdbg_util::BitVec::zeros(design.n_params());
        let bs = design.scg.try_specialize(&params)?;
        let bytes = pfdbg_arch::bitfile::write(&bs, design.layout.frame_bits);
        std::fs::write(&path, &bytes).map_err(|e| format!("{path}: {e}"))?;
        println!("  wrote default specialization to {path} ({} bytes)", bytes.len());
    }
    Ok(())
}

fn cmd_offline(rest: &[String]) -> Result<(), String> {
    let (name, nw) = load_network(rest)?;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let (_, _, inst) = prepare_instrumented(&nw, &icfg(rest)?, k)?;
    let cfg = OfflineConfig { k, ..Default::default() };
    let store = store_from_flags(rest)?.map(|s| (s, ArtifactStore::fingerprint(&inst, &cfg)));

    // Cache hit: the artifact carries everything the summary (and
    // --dump-bitstream) needs; the detailed place & route statistics
    // only exist on a fresh compile.
    if let Some((store, key)) = &store {
        match store.load(key) {
            Ok(Some((d, map_stats))) => {
                println!("offline generic stage for {name} (cached artifact {key}):");
                println!(
                    "  mapping: {} LUTs + {} TLUTs + {} TCONs, depth {}",
                    map_stats.luts, map_stats.tluts, map_stats.tcons, map_stats.depth
                );
                print_bitstream(&d);
                println!("  (cache hit — run with --no-store for full place&route detail)");
                return dump_bitstream(rest, &d);
            }
            Ok(None) => {}
            Err(e) => pfdbg_obs::diag(&format!("discarding invalid artifact: {e}")),
        }
    }

    let off = offline(&inst, &cfg)?;
    let map_stats = off.map_stats;
    let t = off.tpar.as_ref().expect("the offline stage always places and routes");
    let stats = t.stats;
    let timing =
        pfdbg_pr::analyze_timing(&off.mapped, &off.kinds, t, &pfdbg_pr::DelayModel::default());
    let congestion =
        pfdbg_pr::analyze_congestion(&t.packed, &t.routed, &t.rrg, t.stats.channel_width);
    let design = CompiledDesign::from_offline(inst, off);
    println!("offline generic stage for {name}:");
    println!(
        "  mapping: {} LUTs + {} TLUTs + {} TCONs, depth {}",
        map_stats.luts, map_stats.tluts, map_stats.tcons, map_stats.depth
    );
    println!(
        "  place&route: {} CLBs, {} nets ({} tunable), {} wires, {} switches, {:?}",
        stats.n_clbs,
        stats.n_nets,
        stats.n_tunable_nets,
        stats.wires_used,
        stats.n_switches,
        stats.runtime
    );
    print_bitstream(&design);
    if let Ok(timing) = timing {
        println!(
            "  timing: critical path {:.2} ns over {} LUT levels",
            timing.critical_delay, timing.levels
        );
    }
    println!(
        "  congestion: peak channel {:.0}%, mean {:.0}%, tunable share {:.0}%",
        congestion.peak_utilization * 100.0,
        congestion.mean_utilization * 100.0,
        congestion.tunable_share * 100.0
    );
    dump_bitstream(rest, &design)?;
    if let Some((store, key)) = &store {
        let path = store.save(key, &pfdbg_store::Artifact::capture(&design, &map_stats))?;
        pfdbg_obs::diag(&format!("stored compiled artifact at {}", path.display()));
    }
    Ok(())
}

/// The generalized bitstream's line of the `offline` summary.
fn print_bitstream(design: &CompiledDesign) {
    let gbs = design.scg.generalized();
    println!(
        "  bitstream: {} bits in {} frames; {} parameterized bits ({:.3}%)",
        design.layout.n_bits,
        design.layout.n_frames(),
        gbs.n_tunable(),
        gbs.tunable_fraction() * 100.0
    );
}

fn cmd_observe(rest: &[String]) -> Result<(), String> {
    // The observed device takes no upsets: repairing them is `scrub`'s.
    let seu_flags = ["--seu-rate", "--seu-seed", "--seu-burst"];
    if let Some(f) = seu_flags.iter().find(|f| rest.iter().any(|a| a == *f)) {
        return Err(format!(
            "observe does not take {f}: the observed device takes no upsets \
             (pfdbg scrub injects and repairs them)"
        ));
    }
    let (name, nw) = load_network(rest)?;
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
    let chaos = ChaosSpec { seu: None, ..chaos_from_flags(rest)? };
    let online = chaos.standalone(compile(rest, inst.clone(), k)?, None, |c| c);
    let dut = inst.network.clone();
    let mut session = DebugSession::new(inst, Some(online));
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
    let (name, nw) = load_network(rest)?;
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

    let (name, nw) = load_network(rest)?;
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
    let (name, nw) = load_network(rest)?;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let turns = flag_usize(rest, "--turns", 50)?;
    let scrub_every = flag_usize(rest, "--scrub-every", 5)?.max(1);
    let (_, _, inst) = prepare_instrumented(&nw, &icfg(rest)?, k)?;
    let design = compile(rest, inst, k)?;

    let chaos = chaos_from_flags(rest)?;
    // A scrub demo with nothing to scrub is pointless: default the
    // upset rate up when neither the flag nor the environment set one.
    let seu = chaos.seu.unwrap_or(SeuConfig { rate: 0.02, burst: 2, seed: 0x5EED_05E0 });
    let chaos = ChaosSpec { seu: Some(seu), ..chaos };
    let n_params = design.n_params();
    let mut online = chaos.standalone(design, None, |c| c);

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
    let undetected = online.undetected_divergence()?;
    if undetected.is_empty() {
        println!("undetected divergence: none — device matches the PConf golden oracle");
        Ok(())
    } else {
        Err(format!("undetected divergence in frames {undetected:?}"))
    }
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    use pfdbg_serve::{
        DeviceOptions, FleetOptions, JournalOptions, ManagerOptions, Server, ServerConfig,
        SessionManager,
    };

    let (name, nw) = load_network(rest)?;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let icfg = icfg(rest)?;
    let (_, _, inst) = prepare_instrumented(&nw, &icfg, k)?;
    let design = compile(rest, inst, k)?;

    let n_params = design.n_params();
    let workers = flag_usize(rest, "--workers", 8)?;
    let addr = match (flag(rest, "--addr"), flag(rest, "--port")) {
        (Some(a), _) => a,
        (None, Some(p)) => format!("127.0.0.1:{p}"),
        (None, None) => "127.0.0.1:0".into(),
    };
    let scrub_interval_ms = flag_f64(rest, "--scrub-interval", 0.0)?;
    let chaos = chaos_from_flags(rest)?;
    let journal = match flag(rest, "--journal-dir") {
        Some(dir) => {
            std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
            println!("pfdbg serve: journaling sessions to {dir}");
            let design = journal_design(rest)?;
            Some(JournalOptions { dir: dir.into(), design, coverage: icfg.coverage, k })
        }
        None => None,
    };
    // Device fleet: `--devices N` serves over N supervised primaries
    // plus `--spares` hot spares (health ladders, watchdogs, and
    // journal-backed failover); without it, one unsupervised device.
    let devices = flag_usize(rest, "--devices", 0)?;
    let spares = flag_usize(rest, "--spares", 1)?;
    let opts = ManagerOptions {
        cache_capacity: flag_usize(rest, "--cache", 64)?,
        chaos,
        // Fleet shape: 0 takes the defaults (`PFDBG_SHARDS`, else 4
        // shards; 1024-job inboxes).
        fleet: FleetOptions {
            shards: flag_usize(rest, "--shards", 0)?,
            inbox_capacity: flag_usize(rest, "--inbox-cap", 0)?,
        },
        devices: (devices > 0).then_some(DeviceOptions { devices, spares, ..Default::default() }),
        journal,
    };
    let manager = SessionManager::new(Arc::new(design), opts);
    let n_shards = manager.shard_count();
    let inbox_capacity = manager.inbox_capacity();
    let handle = Server::start(
        manager,
        ServerConfig { addr, workers, scrub_interval_ms, ..ServerConfig::default() },
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

/// The design a serve journal records: the design argument's, which
/// `pfdbg replay` rebuilds, unless `--max-signals` limited the
/// instrumentation. No journal meta records that limit, so such
/// journals are `External`: they re-drive on the live engine (restore
/// and the server's `replay` verb), not standalone.
fn journal_design(rest: &[String]) -> Result<DesignSpec, String> {
    if icfg(rest)?.max_signals.is_some() {
        return Ok(DesignSpec::External);
    }
    DesignSpec::parse(design_arg(rest)?)
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
    use pfdbg_replay::{Recorder, SessionMeta};

    let arg = design_arg(rest)?;
    if flag(rest, "--max-signals").is_some() {
        return Err("record does not take --max-signals: a journal meta cannot record it, \
                    so its replay would rebuild a different design"
            .into());
    }
    let out = flag(rest, "--out").ok_or("--out expects a journal path (.pfdj)")?;
    let turns = flag_usize(rest, "--turns", 8)?;
    let scrub_every = flag_usize(rest, "--scrub-every", 0)?;
    let seed = flag_usize(rest, "--seed", 0x00C0_FFEE)? as u64;
    let k = flag_usize(rest, "--k", PAPER_K)?;
    let icfg = icfg(rest)?;
    let meta = SessionMeta {
        session: flag(rest, "--session").unwrap_or_else(|| "cli".into()),
        derive_seeds: false,
        design: DesignSpec::parse(arg)?,
        ports: icfg.n_ports,
        coverage: icfg.coverage,
        k,
        n_params: 0, // the recorder fills this from the built design
        chaos: chaos_from_flags(rest)?,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn chaos_flags_parse_into_one_spec() {
        let chaos = chaos_from_flags(&args(&[
            "gen:33",
            "--icap-fault-rate",
            "0.25",
            "--icap-seed",
            "7",
            "--seu-rate",
            "0.03",
            "--seu-seed",
            "909",
            "--seu-burst",
            "3",
            "--max-retries",
            "2",
        ]))
        .unwrap();
        let want = ChaosSpec {
            fault: Some(IcapFaultConfig::uniform(0.25, 7)),
            seu: Some(SeuConfig { rate: 0.03, burst: 3, seed: 909 }),
            max_retries: 2,
            ..ChaosSpec::reliable()
        };
        assert_eq!(chaos, want);
        assert!(chaos_from_flags(&args(&["gen:33", "--seu-rate", "2"])).is_err());
    }

    #[test]
    fn serve_journals_name_the_design_unless_max_signals_limits_it() {
        let bench = DesignSpec::Bench { name: "stereov.".into() };
        assert_eq!(journal_design(&args(&["@stereov."])), Ok(bench));
        let limited = args(&["@stereov.", "--max-signals", "6"]);
        assert_eq!(journal_design(&limited), Ok(DesignSpec::External));
    }

    #[test]
    fn observe_refuses_seu_flags() {
        let rest = args(&["@stereov.", "--no-store", "--signals", "auto", "--seu-rate", "1.0"]);
        let err = cmd_observe(&rest).unwrap_err();
        assert!(err.contains("--seu-rate"), "{err}");
    }

    #[test]
    fn record_refuses_max_signals_before_writing() {
        let out = std::env::temp_dir()
            .join(format!("pfdbg-cli-record-max-signals-{}.pfdj", std::process::id()));
        std::fs::remove_file(&out).ok();
        let out_arg = out.to_string_lossy().into_owned();
        let rest = args(&["gen:11", "--out", &out_arg, "--turns", "2", "--max-signals", "4"]);
        let err = cmd_record(&rest).unwrap_err();
        assert!(err.contains("--max-signals"), "{err}");
        assert!(!out.exists(), "a refused recording wrote {}", out.display());
    }
}
