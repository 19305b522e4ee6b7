(* The sfi command-line tool: inspect and run the repository's benchmark
   kernels through the SFI toolchain, compute ColorGuard pool layouts, and
   run FaaS scaling simulations.

     dune exec bin/sfi.exe -- list
     dune exec bin/sfi.exe -- disasm sightglass/fib2 --strategy segue
     dune exec bin/sfi.exe -- run spec2006/429_mcf --strategy segue
     dune exec bin/sfi.exe -- layout --slots 64 --max-mem 408 --guard 8192 --keys 15 --stripe
     dune exec bin/sfi.exe -- simulate --workload regex --processes 8
     dune exec bin/sfi.exe -- trace sightglass/matrix -o trace.json --check
     dune exec bin/sfi.exe -- top --workload hash --trap-rate 0.01
*)

open Cmdliner
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Kernel = Sfi_workloads.Kernel
module Pool = Sfi_core.Pool
module Invariants = Sfi_core.Invariants
module Units = Sfi_util.Units
module Sim = Sfi_faas.Sim
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine
module Trace = Sfi_trace.Trace

let all_kernels : Kernel.t list =
  Sfi_workloads.Spec2006.all @ Sfi_workloads.Sightglass.all @ Sfi_workloads.Polybench.all
  @ [ Sfi_workloads.Polybench.dhrystone ]
  @ Sfi_workloads.Spec2017.all

let kernel_id (k : Kernel.t) = k.Kernel.suite ^ "/" ^ k.Kernel.name

let find_kernel name =
  match List.find_opt (fun k -> kernel_id k = name || k.Kernel.name = name) all_kernels with
  | Some k -> Ok k
  | None -> Error (`Msg (Printf.sprintf "unknown kernel %s (see `sfi list`)" name))

let strategy_of_string = function
  | "native" -> Ok Strategy.native
  | "base" | "wasm" -> Ok Strategy.wasm_default
  | "segue" -> Ok Strategy.segue
  | "segue-loads" -> Ok Strategy.segue_loads_only
  | "bounds" -> Ok Strategy.wasm_bounds_checked
  | "segue-bounds" -> Ok Strategy.segue_bounds_checked
  | "mask" -> Ok { Strategy.addressing = Strategy.Reserved_base; bounds = Strategy.Mask }
  | s -> Error (`Msg ("unknown strategy " ^ s ^ " (native|base|segue|segue-loads|bounds|segue-bounds|mask)"))

let strategy_conv =
  Arg.conv ((fun s -> strategy_of_string s), fun ppf s -> Strategy.pp ppf s)

let strategy_arg =
  Arg.(value & opt strategy_conv Strategy.segue & info [ "strategy"; "s" ] ~docv:"STRATEGY"
         ~doc:"Compilation strategy: native, base, segue, segue-loads, bounds, segue-bounds, mask.")

let vectorize_arg =
  Arg.(value & flag & info [ "vectorize" ] ~doc:"Enable the WAMR-style loop vectorizer.")

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (k : Kernel.t) ->
        Printf.printf "%-28s %s\n" (kernel_id k) k.Kernel.description)
      all_kernels
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available benchmark kernels.")
    Term.(const run $ const ())

(* --- disasm --------------------------------------------------------- *)

let kernel_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel id (see list).")

let disasm_cmd =
  let run name strategy vectorize =
    match find_kernel name with
    | Error (`Msg m) -> prerr_endline m; exit 1
    | Ok k ->
        let cfg = { (Codegen.default_config ~strategy ()) with Codegen.vectorize } in
        let compiled = Codegen.compile cfg (Lazy.force k.Kernel.wasm) in
        Format.printf "; %s under %a (%d bytes)@.%a"
          (kernel_id k) Strategy.pp strategy compiled.Codegen.code_bytes
          Sfi_x86.Ast.pp_program compiled.Codegen.program
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Compile a kernel and print the generated x86-64.")
    Term.(const run $ kernel_arg $ strategy_arg $ vectorize_arg)

(* --- run ------------------------------------------------------------ *)

(* The unified Prometheus-style snapshot: machine counters of one
   measurement plus the domain-local runtime aggregate (transitions by
   class, PKRU elisions, lifecycle work) accumulated since the matching
   [reset_domain_metrics]. *)
let prometheus_snapshot (m : Kernel.measurement) (dm : Runtime.metrics) =
  Trace.prometheus (Kernel.prometheus_gauges m dm)

let run_cmd =
  let arg_override =
    Arg.(value & opt (some int) None & info [ "arg" ] ~docv:"N" ~doc:"Override the scale argument.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write a Prometheus text-exposition snapshot of the run's machine and \
                   runtime counters to $(docv).")
  in
  let run name strategy vectorize arg metrics_out =
    match find_kernel name with
    | Error (`Msg m) -> prerr_endline m; exit 1
    | Ok k ->
        let k =
          match arg with
          | Some n -> { k with Kernel.args = [ Int64.of_int n ] }
          | None -> k
        in
        Runtime.reset_domain_metrics ();
        let m = Kernel.run ~vectorize ~strategy k in
        Printf.printf "%s under %s (args %s)\n" (kernel_id k) (Strategy.name strategy)
          (String.concat "," (List.map Int64.to_string k.Kernel.args));
        Printf.printf "  result        %Ld\n" m.Kernel.result;
        Printf.printf "  instructions  %d\n" m.Kernel.instructions;
        Printf.printf "  cycles        %d (%.3f ms at 2.2 GHz)\n" m.Kernel.cycles
          (m.Kernel.ns /. 1e6);
        Printf.printf "  code size     %d bytes (static), %d fetched\n" m.Kernel.code_bytes
          m.Kernel.fetched_bytes;
        Printf.printf "  dTLB misses   %d\n" m.Kernel.dtlb_misses;
        Printf.printf "  dcache misses %d\n" m.Kernel.dcache_misses;
        match metrics_out with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc (prometheus_snapshot m (Runtime.domain_metrics ()));
            close_out oc;
            Printf.printf "  metrics       -> %s\n" path
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a kernel on the simulated machine and print its counters.")
    Term.(const run $ kernel_arg $ strategy_arg $ vectorize_arg $ arg_override $ metrics_out)

(* --- trace ------------------------------------------------------------ *)

let trace_cmd =
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Chrome trace_event JSON output path (Perfetto-loadable).")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate the captured stream (span nesting, per-track time order) and the \
                   emitted JSON against the event schema; exit non-zero on any failure or if \
                   a core event category is missing.")
  in
  let capacity =
    Arg.(value & opt int 65536
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Ring-buffer capacity in events; on overflow the earliest events are kept.")
  in
  let interval =
    Arg.(value & opt int 64
         & info [ "profile-interval" ] ~docv:"N"
             ~doc:"Hot-PC profiler sampling period in simulated instructions.")
  in
  let run name strategy vectorize out check capacity interval =
    match find_kernel name with
    | Error (`Msg m) -> prerr_endline m; exit 1
    | Ok k ->
        let cfg = { (Codegen.default_config ~strategy ()) with Codegen.vectorize } in
        let compiled = Codegen.compile cfg (Lazy.force k.Kernel.wasm) in
        let eng = Runtime.create_engine compiled in
        let sink = Trace.create_ring ~capacity () in
        Runtime.set_trace eng sink;
        Machine.arm_profiler ~interval (Runtime.machine eng);
        let inst = Runtime.instantiate eng in
        (* A deliberately fuel-starved probe on a second slot exercises the
           watchdog-kill path, so the capture always carries fault and kill
           events on their own sandbox track. *)
        let probe = Runtime.instantiate eng in
        (match Runtime.invoke_protected ~fuel:32 probe k.Kernel.entry k.Kernel.args with
        | Ok _ | Error _ -> ());
        (match Runtime.invoke inst k.Kernel.entry k.Kernel.args with
        | Error trap ->
            Printf.eprintf "trap: %s\n" (Sfi_x86.Ast.trap_name trap);
            exit 1
        | Ok result ->
            let json = Trace.to_chrome_json ~process_name:(kernel_id k) sink in
            let oc = open_out out in
            output_string oc json;
            close_out oc;
            Printf.printf "%s under %s: result %Ld\n" (kernel_id k) (Strategy.name strategy)
              result;
            Printf.printf "  %d events captured (%d dropped, capacity %d) -> %s\n"
              (Trace.length sink) (Trace.dropped sink) (Trace.capacity sink) out;
            Printf.printf "  categories: %s\n" (String.concat ", " (Trace.categories sink));
            List.iter
              (fun (nm, s) ->
                Printf.printf "  %-18s n=%-6d p50=%-9.0f p95=%-9.0f p99=%-9.0f total=%.0f\n"
                  nm s.Trace.s_count s.Trace.s_p50 s.Trace.s_p95 s.Trace.s_p99
                  s.Trace.s_total)
              (Trace.summaries sink);
            let mach = Runtime.machine eng in
            let samples = Machine.profile_samples mach in
            if samples > 0 then begin
              Printf.printf "  hot regions (%d samples, 1 per %d instructions):\n" samples
                interval;
              List.iteri
                (fun i (label, n) ->
                  if i < 10 then
                    Printf.printf "    %5.1f%% %6d  %s\n"
                      (100.0 *. float_of_int n /. float_of_int samples)
                      n label)
                (Machine.hot_regions mach)
            end;
            if check then begin
              (match Trace.validate sink with
              | Ok () -> print_endline "  stream: well-formed (nesting, per-track time order)"
              | Error msg ->
                  Printf.eprintf "stream INVALID: %s\n" msg;
                  exit 1);
              match Trace.validate_chrome_json json with
              | Error msg ->
                  Printf.eprintf "json INVALID: %s\n" msg;
                  exit 1
              | Ok r ->
                  Printf.printf "  json: %d events, schema OK, categories: %s\n"
                    r.Trace.json_events
                    (String.concat ", " r.Trace.json_cats);
                  let missing =
                    List.filter
                      (fun c -> not (List.mem c r.Trace.json_cats))
                      [ "transition"; "lifecycle"; "fault"; "tlb" ]
                  in
                  if missing <> [] then begin
                    Printf.eprintf "missing categories: %s\n" (String.concat ", " missing);
                    exit 1
                  end
            end)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a kernel with structured tracing and the hot-PC profiler armed; export a \
          Chrome trace_event JSON (one track per sandbox plus the machine track) and print \
          per-class latency summaries.")
    Term.(const run $ kernel_arg $ strategy_arg $ vectorize_arg $ out $ check $ capacity
          $ interval)

(* --- layout ---------------------------------------------------------- *)

let layout_cmd =
  let slots = Arg.(value & opt int 64 & info [ "slots" ] ~docv:"N" ~doc:"Number of slots.") in
  let max_mem =
    Arg.(value & opt int 4096 & info [ "max-mem" ] ~docv:"MIB" ~doc:"Max memory per slot (MiB).")
  in
  let expected =
    Arg.(value & opt (some int) None
         & info [ "expected" ] ~docv:"MIB" ~doc:"Expected reservation (MiB, default max-mem).")
  in
  let guard = Arg.(value & opt int 4096 & info [ "guard" ] ~docv:"MIB" ~doc:"Guard size (MiB).") in
  let keys = Arg.(value & opt int 15 & info [ "keys" ] ~docv:"N" ~doc:"Available MPK keys.") in
  let stripe = Arg.(value & flag & info [ "stripe" ] ~doc:"Enable ColorGuard striping.") in
  let pre = Arg.(value & flag & info [ "pre-guard" ] ~doc:"Enable shared pre-guards.") in
  let run slots max_mem expected guard keys stripe pre =
    let params =
      {
        Pool.num_slots = slots;
        max_memory_bytes = max_mem * Units.mib;
        expected_slot_bytes = Option.value expected ~default:max_mem * Units.mib;
        guard_bytes = guard * Units.mib;
        pre_guard_enabled = pre;
        num_pkeys_available = keys;
        stripe_enabled = stripe;
      }
    in
    match Pool.compute params with
    | Error msg ->
        Printf.printf "rejected: %s\n" msg;
        exit 1
    | Ok l ->
        Format.printf "%a@." Pool.pp_layout l;
        (match Invariants.check l with
        | [] -> print_endline "all Table 1 invariants hold"
        | vs -> List.iter (fun v -> Format.printf "%a@." Invariants.pp_violation v) vs);
        let r = Sfi_core.Colorguard.scaling params in
        Printf.printf
          "address-space capacity: %d slots unstriped, %d striped (%.1fx)\n"
          r.Sfi_core.Colorguard.unstriped_slots r.Sfi_core.Colorguard.striped_slots
          r.Sfi_core.Colorguard.factor
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Compute and verify a ColorGuard pool layout.")
    Term.(const run $ slots $ max_mem $ expected $ guard $ keys $ stripe $ pre)

(* --- simulate --------------------------------------------------------- *)

let workload_conv =
  Arg.conv
    ( (function
      | "hash" -> Ok Sfi_faas.Workloads.Hash_balance
      | "regex" -> Ok Sfi_faas.Workloads.Regex_filter
      | "template" -> Ok Sfi_faas.Workloads.Templating
      | "micro" -> Ok Sfi_faas.Workloads.Micro_kv
      | s -> Error (`Msg ("unknown workload " ^ s ^ " (hash|regex|template|micro)"))),
      fun ppf w -> Format.pp_print_string ppf (Sfi_faas.Workloads.name w) )

let workload_arg =
  Arg.(value & opt workload_conv Sfi_faas.Workloads.Hash_balance
       & info [ "workload"; "w" ] ~docv:"W" ~doc:"hash, regex, template or micro.")

(* A simulation the sim refuses ends the command with one line on stderr
   and this exit status, before anything runs. *)
let invalid_config_status = 2

let sim_exits =
  Cmd.Exit.info invalid_config_status
    ~doc:
      "on a simulation configuration the simulator refuses, such as a $(b,--duration) \
       that is not a positive, finite number."
  :: Cmd.Exit.defaults

let or_invalid_config = function
  | Ok () -> ()
  | Error reason ->
      Printf.eprintf "sfi: invalid configuration: %s\n" reason;
      exit invalid_config_status

let simulate_cmd =
  let workload = workload_arg in
  let processes =
    Arg.(value & opt int 8 & info [ "processes"; "p" ] ~docv:"K" ~doc:"Process count to compare.")
  in
  let trap_rate =
    Arg.(value & opt float 0.0
         & info [ "trap-rate" ] ~docv:"P" ~doc:"Per-request probability of a trapping handler.")
  in
  let runaway_rate =
    Arg.(value & opt float 0.0
         & info [ "runaway-rate" ] ~docv:"P"
             ~doc:"Per-request probability of a runaway (watchdog-killed) handler.")
  in
  let run workload processes trap_rate runaway_rate =
    let faults = { Sim.no_faults with Sim.trap_rate; runaway_rate } in
    let cfg = Sim.default_config ~workload ~faults () in
    let cg = Sim.run { cfg with Sim.mode = Sim.Colorguard } in
    let mp = Sim.run { cfg with Sim.mode = Sim.Multiprocess processes } in
    Printf.printf "%s, %d in-flight requests, %.0f ms simulated:\n"
      (Sfi_faas.Workloads.name workload) cfg.Sim.concurrency (cfg.Sim.duration_ns /. 1e6);
    Printf.printf "  ColorGuard:      %5d served, %8.0f req/s-core, %6d transitions, %d dTLB\n"
      cg.Sim.completed cg.Sim.capacity_rps cg.Sim.user_transitions cg.Sim.dtlb_misses;
    Printf.printf "  %2d processes:    %5d served, %8.0f req/s-core, %6d ctx switches, %d dTLB\n"
      processes mp.Sim.completed mp.Sim.capacity_rps mp.Sim.context_switches mp.Sim.dtlb_misses;
    Printf.printf "  per-core efficiency gain: %+.1f%%\n"
      ((cg.Sim.capacity_rps -. mp.Sim.capacity_rps) /. mp.Sim.capacity_rps *. 100.0);
    if trap_rate > 0.0 || runaway_rate > 0.0 then begin
      Printf.printf "  faults (trap %.2f, runaway %.2f):\n" trap_rate runaway_rate;
      Printf.printf
        "    ColorGuard:   availability %.4f, %d failed, %d watchdog, %d collateral\n"
        cg.Sim.availability cg.Sim.failed cg.Sim.watchdog_kills cg.Sim.collateral_aborts;
      Printf.printf
        "    %2d processes: availability %.4f, %d failed, %d watchdog, %d collateral\n"
        processes mp.Sim.availability mp.Sim.failed mp.Sim.watchdog_kills
        mp.Sim.collateral_aborts
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Compare ColorGuard vs multiprocess FaaS scaling.")
    Term.(const run $ workload $ processes $ trap_rate $ runaway_rate)

(* --- top -------------------------------------------------------------- *)

let top_cmd =
  let processes =
    Arg.(value & opt (some int) None
         & info [ "processes"; "p" ] ~docv:"K"
             ~doc:"Simulate K-process OS scaling instead of ColorGuard.")
  in
  let duration =
    Arg.(value & opt float 20.0
         & info [ "duration" ] ~docv:"MS" ~doc:"Simulated wall-clock to run for (ms).")
  in
  let trap_rate =
    Arg.(value & opt float 0.0
         & info [ "trap-rate" ] ~docv:"P" ~doc:"Per-request probability of a trapping handler.")
  in
  let runaway_rate =
    Arg.(value & opt float 0.0
         & info [ "runaway-rate" ] ~docv:"P"
             ~doc:"Per-request probability of a runaway (watchdog-killed) handler.")
  in
  let rows =
    Arg.(value & opt int 16
         & info [ "rows"; "n" ] ~docv:"N" ~doc:"Tenants to show (busiest first).")
  in
  let resilient =
    Arg.(value & flag
         & info [ "resilient" ]
             ~doc:"Arm the overload-resilience stack: adaptive admission over a quarter-size \
                   slot pool, per-tenant circuit breakers and SLO burn-rate tracking. Adds \
                   SHED/BRKOPEN/BRK/BURN columns.")
  in
  let crash_tenants =
    Arg.(value & opt_all int []
         & info [ "crash-tenant" ] ~docv:"ID"
             ~doc:"Make tenant $(docv) crash-loop (every request traps). Repeatable. \
                   Implies nothing else; combine with $(b,--resilient) to watch its breaker \
                   open while healthy tenants keep their p99.")
  in
  let run workload processes duration trap_rate runaway_rate rows resilient crash_tenants =
    let faults = { Sim.no_faults with Sim.trap_rate; runaway_rate } in
    let mode =
      match processes with None -> Sim.Colorguard | Some p -> Sim.Multiprocess p
    in
    let overload =
      if not (resilient || crash_tenants <> []) then Sim.no_overload
      else
        {
          Sim.no_overload with
          Sim.crash_tenants;
          pool_slots = (if resilient then Some 32 else None);
          admission = (if resilient then Some Runtime.default_admission else None);
          breaker = (if resilient then Some Sfi_faas.Breaker.default_config else None);
          degradation = resilient;
          hedged_retries = resilient;
          slo = (if resilient then Some (Sfi_faas.Slo.default_config ()) else None);
        }
    in
    (* Churn when the resilience stack is armed: released slots keep
       admission continuously contested, so sheds, breaker trips and
       recoveries actually show up in a short run. *)
    let churn = resilient || crash_tenants <> [] in
    let cfg =
      { (Sim.default_config ~mode ~workload ~faults ~overload ~churn
           ~fair_scheduling:churn ()) with
        Sim.duration_ns = duration *. 1e6 }
    in
    or_invalid_config (Sim.validate cfg);
    let r = Sim.run cfg in
    Printf.printf "%s, %s, %d tenants, %.0f ms simulated\n"
      (Sfi_faas.Workloads.name workload)
      (match mode with
      | Sim.Colorguard -> "ColorGuard"
      | Sim.Multiprocess p -> Printf.sprintf "%d processes" p)
      cfg.Sim.concurrency (cfg.Sim.duration_ns /. 1e6);
    Printf.printf
      "%d completed, %d failed, %.0f req/s-core, availability %.4f, %d transitions\n"
      r.Sim.completed r.Sim.failed r.Sim.capacity_rps r.Sim.availability
      r.Sim.user_transitions;
    if resilient then
      Printf.printf
        "admitted %d, shed %d (sojourn %d, rate %d, queue %d), breaker opens %d, \
         fast-fails %d\n"
        r.Sim.admitted (Sim.sheds r)
        r.Sim.shed_sojourn r.Sim.shed_rate_limited r.Sim.shed_queue_full r.Sim.breaker_opens
        r.Sim.breaker_fast_fails;
    print_newline ();
    let show_breakers = resilient || crash_tenants <> [] in
    print_endline (Sim.top_header ~breakers:show_breakers);
    let tenants = Array.copy r.Sim.tenants in
    Array.sort
      (fun a b ->
        match compare b.Sim.t_completed a.Sim.t_completed with
        | 0 -> compare a.Sim.t_id b.Sim.t_id
        | c -> c)
      tenants;
    Array.iteri
      (fun i t ->
        if i < rows then print_endline (Sim.top_row ~breakers:show_breakers t))
      tenants
  in
  Cmd.v
    (Cmd.info "top" ~exits:sim_exits
       ~doc:
         "Run the FaaS simulation and print a per-tenant breakdown (completions, failures, \
          shed/breaker state and fast-window SLO burn rate with --resilient, \
          request-latency percentiles), busiest tenants first.")
    Term.(const run $ workload_arg $ processes $ duration $ trap_rate $ runaway_rate $ rows
          $ resilient $ crash_tenants)

(* --- inject ----------------------------------------------------------- *)

let inject_cmd =
  let strategy_name =
    Arg.(value & opt (some string) None
         & info [ "strategy"; "s" ] ~docv:"S"
             ~doc:"Attack only this strategy (segue, segue-loads, base-reg, bounds-check, mask).")
  in
  let self_test =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"Weaken the isolation deliberately and verify the harness detects the escape.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every attempt, not just escapes.")
  in
  let run strategy_name self_test verbose =
    let module Inject = Sfi_inject.Inject in
    if self_test then begin
      match Inject.self_test () with
      | Ok () ->
          print_endline "self-test passed: weakened isolation was detected as an escape"
      | Error msg ->
          prerr_endline msg;
          exit 1
    end
    else begin
      let targets =
        match strategy_name with
        | None -> Inject.strategies
        | Some n -> (
            match List.filter (fun (name, _) -> name = n) Inject.strategies with
            | [] ->
                prerr_endline
                  ("unknown strategy " ^ n ^ " (segue|segue-loads|base-reg|bounds-check|mask)");
                exit 1
            | l -> l)
      in
      let reports = List.map (fun (name, s) -> Inject.run_strategy name s) targets in
      List.iter
        (fun r ->
          Format.printf "%a" Inject.pp_report r;
          if verbose then
            List.iter
              (fun (a : Inject.attempt) ->
                Format.printf "  %-16s %-40s %-8s %a@." a.Inject.a_class a.Inject.a_desc
                  a.Inject.a_entry Inject.pp_outcome a.Inject.outcome)
              r.Inject.attempts)
        reports;
      let escaped =
        List.fold_left (fun n r -> n + (Inject.tally r).Inject.escaped) 0 reports
      in
      if escaped > 0 then begin
        Printf.printf "%d escape(s) — containment FAILED\n" escaped;
        exit 1
      end
      else print_endline "zero escapes: all attempts contained or diverged"
    end
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Run the fault-injection containment harness against the SFI strategies.")
    Term.(const run $ strategy_name $ self_test $ verbose)

let fuzz_cmd =
  let module Fuzz = Sfi_fuzz.Fuzz in
  let count =
    Arg.(value & opt int 100
         & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of random programs to check.")
  in
  let seed =
    Arg.(value & opt int 0xC0FFEE
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Base seed; program $(i,i) uses seed SEED+$(i,i), so failures replay alone.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"The fixed-seed CI corpus: 500 programs with the default seed, sanitizer on.")
  in
  let replay =
    Arg.(value & opt (some int) None
         & info [ "replay" ] ~docv:"SEED"
             ~doc:"Regenerate and print one program from its seed, then re-run the full oracle.")
  in
  let self_test =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"Weaken the isolation deliberately (guard-region hole; swapped ColorGuard \
                   PKRU image) and verify the sanitizer reports the faulting instruction.")
  in
  let no_sanitizer =
    Arg.(value & flag
         & info [ "no-sanitizer" ] ~doc:"Run compiled programs without the SFI sanitizer armed.")
  in
  let no_minimize =
    Arg.(value & flag & info [ "no-minimize" ] ~doc:"Report divergences without shrinking them.")
  in
  let no_churn =
    Arg.(value & flag
         & info [ "no-churn" ]
             ~doc:"Skip the lifecycle arm (instantiate/kill/recycle, then re-run on the \
                   recycled slot).")
  in
  let run count seed quick replay self_test no_sanitizer no_minimize no_churn =
    let sanitizer = not no_sanitizer in
    let churn = not no_churn in
    if self_test then begin
      match Fuzz.self_test () with
      | Ok msg -> print_endline ("self-test passed: " ^ msg)
      | Error msg ->
          prerr_endline ("self-test FAILED: " ^ msg);
          exit 1
    end
    else
      match replay with
      | Some s ->
          let r = Fuzz.replay ~sanitizer ~churn Format.std_formatter (Int64.of_int s) in
          if r.Fuzz.failure <> None then exit 1
      | None ->
          let count, seed = if quick then (500, 0xC0FFEE) else (count, seed) in
          let report =
            Fuzz.run_corpus ~sanitizer ~churn ~minimize_failures:(not no_minimize)
              ~progress:(fun i ->
                if i > 0 && i mod 100 = 0 then Printf.eprintf "... %d programs\n%!" i)
              ~seed:(Int64.of_int seed) ~count ()
          in
          Format.printf "%a" Fuzz.pp_report report;
          if report.Fuzz.r_divergences <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz every execution path: reference interpreter vs all six SFI \
          strategies on both machine engines (plus the LFI rewriter on tame programs), with \
          the SFI sanitizer shadow-checking every access.")
    Term.(
      const run $ count $ seed $ quick $ replay $ self_test $ no_sanitizer $ no_minimize
      $ no_churn)

(* --- chaos ------------------------------------------------------------ *)

let chaos_cmd =
  let module Chaos = Sfi_inject.Chaos in
  let seed =
    Arg.(value & opt int 0xC4A05
         & info [ "seed" ] ~docv:"N"
             ~doc:"Plan seed. Same seed, same schedule, same counters — byte-identical runs.")
  in
  let perturbations =
    Arg.(value & opt int 200
         & info [ "perturbations"; "n" ] ~docv:"N" ~doc:"Perturbations in the schedule.")
  in
  let duration =
    Arg.(value & opt float 50.0
         & info [ "duration" ] ~docv:"MS" ~doc:"Simulated wall-clock to run for (ms).")
  in
  let floor =
    Arg.(value & opt float 0.90
         & info [ "floor" ] ~docv:"A" ~doc:"Availability floor invariant (0-1).")
  in
  let repeat =
    Arg.(value & flag
         & info [ "repeat" ]
             ~doc:"Run the plan twice and fail unless schedule digest and sim counters match.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write a Prometheus snapshot of the chaos run's serving counters to $(docv).")
  in
  let run workload seed perturbations duration floor repeat metrics_out =
    let cfg =
      {
        (Chaos.default_config ~seed:(Int64.of_int seed) ~perturbations ()) with
        Chaos.workload;
        duration_ns = duration *. 1e6;
        availability_floor = floor;
      }
    in
    or_invalid_config (Chaos.validate cfg);
    let flight = Sfi_trace.Flight.create () in
    let r = Chaos.run ~flight cfg in
    let s = r.Chaos.sim in
    Printf.printf "chaos: %d perturbations over %.0f ms (%s, seed %#x)\n" perturbations
      duration (Sfi_faas.Workloads.name workload) seed;
    Printf.printf "  schedule digest   %s\n" r.Chaos.digest;
    Printf.printf "  applied           %d (%d kills found an in-flight victim)\n"
      s.Sim.chaos_applied s.Sim.chaos_kills;
    Printf.printf "  completed         %d (%d failed, availability %.4f >= %.2f)\n"
      s.Sim.completed s.Sim.failed s.Sim.availability floor;
    Printf.printf "  admission         %d admitted, shed %d/%d/%d (sojourn/rate/queue)\n"
      s.Sim.admitted s.Sim.shed_sojourn s.Sim.shed_rate_limited s.Sim.shed_queue_full;
    Printf.printf "  breakers          %d opened, %d fast-fails, %d open at end\n"
      s.Sim.breaker_opens s.Sim.breaker_fast_fails s.Sim.breakers_open_at_end;
    Printf.printf "  slo               %d burn alerts raised, %d cleared, %d burning at end\n"
      s.Sim.slo_burn_starts s.Sim.slo_burn_stops s.Sim.slo_burning_at_end;
    Printf.printf "  flight recorder   %d freezes, %d bundles kept (see sfi postmortem)\n"
      (Sfi_trace.Flight.freezes flight)
      (List.length (Sfi_trace.Flight.bundles flight));
    (match metrics_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Trace.prometheus (Sim.prometheus_gauges s));
        close_out oc;
        Printf.printf "  metrics           -> %s\n" path);
    let ok = ref (r.Chaos.violations = []) in
    List.iter
      (fun v ->
        Printf.printf "  VIOLATION [%d] %s: %s\n" v.Chaos.v_index v.Chaos.v_kind
          v.Chaos.v_detail)
      r.Chaos.violations;
    if r.Chaos.violations = [] then Printf.printf "  invariants        all held\n";
    if repeat then begin
      let r2 = Chaos.run cfg in
      let fp1 = Sfi_faas.Shard.result_fingerprint s in
      let fp2 = Sfi_faas.Shard.result_fingerprint r2.Chaos.sim in
      if r.Chaos.digest = r2.Chaos.digest && fp1 = fp2 && r2.Chaos.violations = [] then
        Printf.printf "  repeat            deterministic (digest + counters match)\n"
      else begin
        Printf.printf "  repeat            MISMATCH\n    run1 %016Lx\n    run2 %016Lx\n" fp1 fp2;
        ok := false
      end
    end;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "chaos" ~exits:sim_exits
       ~doc:
         "Perturb a live FaaS sim on a seeded schedule (kill in-flight instances, spike IO \
          latency, fail instantiations) with admission control and circuit breakers armed, \
          and check resilience invariants: no cross-tenant blast radius, availability floor, \
          all breakers re-closed at quiescence. Deterministic per seed.")
    Term.(
      const run $ workload_arg $ seed $ perturbations $ duration $ floor $ repeat
      $ metrics_out)

(* --- postmortem ------------------------------------------------------- *)

let postmortem_cmd =
  let module Chaos = Sfi_inject.Chaos in
  let module Flight = Sfi_trace.Flight in
  let seed =
    Arg.(value & opt int 0xC4A05
         & info [ "seed" ] ~docv:"N"
             ~doc:"Plan seed — the same seed replays the same faults and freezes the same \
                   bundles.")
  in
  let perturbations =
    Arg.(value & opt int 200
         & info [ "perturbations"; "n" ] ~docv:"N" ~doc:"Perturbations in the schedule.")
  in
  let duration =
    Arg.(value & opt float 50.0
         & info [ "duration" ] ~docv:"MS" ~doc:"Simulated wall-clock to run for (ms).")
  in
  let reason =
    Arg.(value & opt (some string) None
         & info [ "reason" ] ~docv:"R"
             ~doc:"Dump only the bundle frozen for this reason (e.g. chaos.kill, \
                   breaker.open, fault); default dumps every kept bundle.")
  in
  let capacity =
    Arg.(value & opt int 256
         & info [ "last" ] ~docv:"N"
             ~doc:"Flight-recorder ring capacity: each bundle keeps the last $(docv) events \
                   before its freeze.")
  in
  let run workload seed perturbations duration reason capacity =
    let cfg =
      {
        (Chaos.default_config ~seed:(Int64.of_int seed) ~perturbations ()) with
        Chaos.workload;
        duration_ns = duration *. 1e6;
      }
    in
    or_invalid_config (Chaos.validate cfg);
    let flight = Flight.create ~capacity () in
    let r = Chaos.run ~flight cfg in
    Printf.printf
      "postmortem: %d perturbations over %.0f ms (%s, seed %#x), %d freezes, %d bundles\n"
      perturbations duration (Sfi_faas.Workloads.name workload) seed
      (Flight.freezes flight)
      (List.length (Flight.bundles flight));
    Printf.printf "  schedule digest %s\n\n" r.Chaos.digest;
    let dump b = print_endline (Flight.render b) in
    (match reason with
    | Some why -> (
        match Flight.find flight why with
        | Some b -> dump b
        | None ->
            Printf.eprintf "no bundle frozen for reason %S (kept: %s)\n" why
              (String.concat ", "
                 (List.map (fun b -> b.Flight.b_reason) (Flight.bundles flight)));
            exit 1)
    | None -> List.iter dump (Flight.bundles flight));
    if r.Chaos.violations <> [] then begin
      List.iter
        (fun v ->
          Printf.printf "VIOLATION [%d] %s: %s\n" v.Chaos.v_index v.Chaos.v_kind
            v.Chaos.v_detail)
        r.Chaos.violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "postmortem" ~exits:sim_exits
       ~doc:
         "Replay a seeded chaos run with the fault flight recorder armed and dump the \
          frozen post-mortem bundles: for each fault class the last events before the \
          freeze, the machine and serving counters at the instant of the fault, and the \
          admission/breaker/ladder state. Deterministic per seed.")
    Term.(
      const run $ workload_arg $ seed $ perturbations $ duration $ reason $ capacity)

(* --- scale ------------------------------------------------------------ *)

let scale_cmd =
  let module Shard = Sfi_faas.Shard in
  let module Wk = Sfi_faas.Workloads in
  let shard_counts =
    Arg.(value & opt (list int) [ 1; 2; 4; 8 ]
         & info [ "shards"; "k" ] ~docv:"K,.."
             ~doc:"Comma-separated shard counts to sweep (domains per point).")
  in
  let tenants =
    Arg.(value & opt int 256 & info [ "tenants" ] ~docv:"N" ~doc:"Tenant population.")
  in
  let duration =
    Arg.(value & opt float 25.0
         & info [ "duration" ] ~docv:"MS" ~doc:"Simulated wall-clock per point (ms).")
  in
  let rps =
    Arg.(value & opt float 20_000_000.0
         & info [ "rps" ] ~docv:"R"
             ~doc:"Mean offered load (requests per simulated second). Keep it above one \
                   shard's capacity to see goodput scale with $(b,--shards).")
  in
  let skew =
    Arg.(value & opt float 0.6
         & info [ "skew" ] ~docv:"S"
             ~doc:"Zipf popularity skew. Higher concentrates load on a few hot tenants; \
                   past ~1.0 a single tenant's serial (one-in-flight) capacity becomes \
                   the bottleneck and shard scaling flattens.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Root seed. Per-shard streams are split from it; same seed, same report.")
  in
  let no_steal =
    Arg.(value & flag
         & info [ "no-steal" ] ~doc:"Disable the work-stealing rebalance (pure hash placement).")
  in
  let repeat =
    Arg.(value & flag
         & info [ "repeat" ]
             ~doc:"Run every point twice and fail unless results are bit-identical \
                   (result, runtime counters and trace fingerprints).")
  in
  let run workload shard_counts tenants duration rps skew seed no_steal repeat =
    let duration_ns = duration *. 1e6 in
    let seed = Int64.of_int seed in
    or_invalid_config
      (Sim.validate
         { (Sim.default_config ~workload ()) with Sim.concurrency = tenants; duration_ns });
    let arrivals =
      Wk.synthesize ~seed ~tenants ~duration_ns ~rps
        ~shape:(Wk.Diurnal { trough = 0.25 })
        ~popularity:(Wk.Zipf { skew })
        ()
    in
    (* Per-shard backpressure: CoDel sojourn control plus per-tenant
       token buckets, shedding immediately rather than parking (a parked
       ticket re-presents once per epoch, which would quantize a small
       shard's pool into 1 ms admission waves and mask core scaling). *)
    let overload =
      {
        Sim.no_overload with
        Sim.admission =
          Some { Runtime.default_admission with Runtime.tenant_rate = 60_000.0 };
      }
    in
    let base =
      {
        (Sim.default_config ~workload ~overload ~fair_scheduling:true ()) with
        Sim.concurrency = tenants;
        duration_ns;
        seed;
        arrivals = Some arrivals;
      }
    in
    Printf.printf
      "%s, %d tenants, %.0f ms simulated, %.0f req/s offered (%d arrivals, zipf %.2f, \
       diurnal)\n"
      (Wk.name workload) tenants duration rps (Array.length arrivals) skew;
    Printf.printf "%6s %7s %6s %9s %8s %12s %9s %9s %9s\n" "SHARDS" "STEALS" "MOVED"
      "COMPLETED" "SHED" "GOODPUT(r/s)" "P50(ms)" "P95(ms)" "P99(ms)";
    let ok = ref true in
    List.iter
      (fun k ->
        let cfg = Shard.default_config ~steal:(not no_steal) ~shards:k base in
        let rep = Shard.run cfg in
        let r = rep.Shard.r_result in
        let moved =
          Array.fold_left (fun acc s -> acc + s.Shard.sh_stolen) 0 rep.Shard.r_shards
        in
        let shed = Sim.sheds r in
        let p50, p95, p99 = Shard.latency_summary r in
        Printf.printf "%6d %7d %6d %9d %8d %12.0f %9.3f %9.3f %9.3f\n" k
          rep.Shard.r_steals moved r.Sim.completed shed r.Sim.goodput_rps (p50 /. 1e6)
          (p95 /. 1e6) (p99 /. 1e6);
        if repeat then begin
          let rep2 = Shard.run cfg in
          let same =
            Shard.result_fingerprint r = Shard.result_fingerprint rep2.Shard.r_result
            && Shard.metrics_fingerprint rep.Shard.r_metrics
               = Shard.metrics_fingerprint rep2.Shard.r_metrics
          in
          if not same then begin
            Printf.printf "       ^ REPEAT MISMATCH at %d shards\n" k;
            ok := false
          end
        end)
      shard_counts;
    if repeat && !ok then Printf.printf "repeats bit-identical at every point\n";
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "scale" ~exits:sim_exits
       ~doc:
         "Shard the FaaS sim across OCaml domains and sweep the shard count under a \
          trace-shaped open-loop load (Zipf popularity, diurnal rate). Each shard owns an \
          engine, pool, admission controller and trace sink; tenants are hash-placed with \
          deterministic tail work-stealing. Goodput is per simulated time, so the sweep is \
          reproducible on any host.")
    Term.(
      const run $ workload_arg $ shard_counts $ tenants $ duration $ rps $ skew $ seed
      $ no_steal $ repeat)

let () =
  let doc = "Segue & ColorGuard SFI toolchain (simulated x86-64)" in
  let info = Cmd.info "sfi" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; disasm_cmd; run_cmd; trace_cmd; layout_cmd; simulate_cmd; top_cmd;
            scale_cmd; inject_cmd; fuzz_cmd; chaos_cmd; postmortem_cmd;
          ]))
