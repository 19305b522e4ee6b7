(* The experiment harness: one experiment per table and figure of the
   paper's evaluation (§6, §7 and the Table 1 verification narrative).
   Each experiment prints the same rows/series the paper reports, with the
   paper's headline numbers quoted alongside for comparison.

   Independent experiments run on OCaml 5 domains: each experiment writes
   into a per-domain buffer (via the Domain.DLS-keyed [emit] sink below)
   and the buffers are merged in registry order afterwards, so the output
   is byte-for-byte deterministic regardless of the domain count.

   Usage:
     dune exec bench/main.exe                # run everything
     dune exec bench/main.exe -- fig3 fig6   # run selected experiments
     dune exec bench/main.exe -- --quick     # CI-sized subset + engine check
     dune exec bench/main.exe -- --json out.json   # per-experiment wall-clock
                                                   # and instructions/sec
     dune exec bench/main.exe -- --jobs 4    # domain count (default: all cores)
     dune exec bench/main.exe -- --serial    # single-domain, unbuffered output
     dune exec bench/main.exe -- --list      # list experiment ids
*)

module Stats = Sfi_util.Stats
module Table = Sfi_util.Table
module Units = Sfi_util.Units
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Pool = Sfi_core.Pool
module Invariants = Sfi_core.Invariants
module Colorguard = Sfi_core.Colorguard
module Checked = Sfi_core.Checked
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine
module Cost = Sfi_machine.Cost
module Kernel = Sfi_workloads.Kernel
module Lfi = Sfi_lfi.Lfi
module Sim = Sfi_faas.Sim
module Shard = Sfi_faas.Shard
module Fworkloads = Sfi_faas.Workloads
module Trace = Sfi_trace.Trace

(* ------------------------------------------------------------------ *)
(* Output sink: direct to stdout normally; into a per-domain buffer    *)
(* when the parallel runner is active, so concurrent experiments never *)
(* interleave and the merged transcript matches a serial run.          *)
(* ------------------------------------------------------------------ *)

let out_key : Buffer.t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let emit s =
  match !(Domain.DLS.get out_key) with
  | Some buf -> Buffer.add_string buf s
  | None ->
      print_string s;
      flush stdout

let section title = emit (Printf.sprintf "\n=== %s ===\n\n" title)
let note fmt = Printf.ksprintf (fun s -> emit (s ^ "\n")) fmt
let print_table t = emit (Table.render t ^ "\n")

(* What the regression gate does with a published metric. An [Exact]
   metric is a pure function of the code and its seeds (a simulated
   counter, or a rate or ratio of simulated quantities) and must reproduce
   the baseline. A [Host] metric times the host machine: reported, never
   gated. *)
type metric_class = Exact | Host

(* Named numeric results an experiment wants machine-readable: collected
   per domain like [emit], attached to the experiment's JSON entry as a
   "metrics" object. *)
let metrics_key : (string * (metric_class * float)) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let metric cls name v =
  let r = Domain.DLS.get metrics_key in
  r := (name, (cls, v)) :: !r

(* [f ()] and the host seconds it took. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Each kernel of [suite] measured by [run] natively, under a baseline and
   under an optimisation: rows of (kernel, native run, base/native,
   opt/native) in suite order, and the geomeans of the two cycle ratios
   (folded last kernel first). *)
let vs_native ~cycles suite run =
  let rows =
    List.map
      (fun (k : Kernel.t) ->
        let native, base, opt = run k in
        let norm m = float_of_int (cycles m) /. float_of_int (cycles native) in
        (k, native, norm base, norm opt))
      suite
  in
  let geomean f = Stats.geomean (List.rev_map f rows) in
  (rows, geomean (fun (_, _, b, _) -> b), geomean (fun (_, _, _, o) -> o))

(* [vs_native] of [Kernel.run] under [base] and [opt]. *)
let strategies_vs_native suite ~base ~opt =
  vs_native ~cycles:(fun (m : Kernel.measurement) -> m.Kernel.cycles) suite (fun k ->
      let run s = Kernel.run ~strategy:s k in
      let native = run Strategy.native in
      let b = run base in
      (native, b, run opt))

(* Instantiate [engine], call [fn] once to warm it, then reset the
   engine's counters and call [fn] [reps] times. *)
let warm_invokes engine fn ~reps =
  let inst = Runtime.instantiate engine in
  ignore (Runtime.invoke inst fn []);
  Runtime.reset_metrics engine;
  for _ = 1 to reps do
    ignore (Runtime.invoke inst fn [])
  done

(* The 16-slot striped pool of 4 MiB slots behind 32 MiB guards that the
   transition measurements run on. *)
let striped_pool () =
  let params =
    {
      Pool.default_params with
      num_slots = 16;
      max_memory_bytes = 4 * Units.mib;
      expected_slot_bytes = 4 * Units.mib;
      guard_bytes = 32 * Units.mib;
      num_pkeys_available = 15;
      stripe_enabled = true;
    }
  in
  match Pool.compute params with Ok l -> Runtime.Pool l | Error m -> failwith m

(* ------------------------------------------------------------------ *)
(* Figure 3: SPEC CPU 2006 on Wasm2c, normalized runtime.              *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section
    "Figure 3 - Segue on Wasm: SPEC CPU 2006 normalized to native (paper: Segue removes 44.7% \
     of Wasm's geomean overhead)";
  let t = Table.create ~headers:[ "benchmark"; "wasm2c"; "wasm2c+segue"; "native cycles" ] in
  let rows, gb, gs =
    strategies_vs_native Sfi_workloads.Spec2006.all ~base:Strategy.wasm_default
      ~opt:Strategy.segue
  in
  List.iter
    (fun ((k : Kernel.t), native, nb, ns) ->
      Table.add_row t
        [ k.Kernel.name; Table.cell_float nb; Table.cell_float ns;
          string_of_int native.Kernel.cycles ])
    rows;
  Table.add_row t [ "geomean"; Table.cell_float gb; Table.cell_float gs; "" ];
  print_table t;
  note
    "Geomean overhead: %.1f%% -> %.1f%%; Segue eliminates %.1f%% of Wasm's overhead (paper: \
     44.7%%)."
    ((gb -. 1.0) *. 100.0)
    ((gs -. 1.0) *. 100.0)
    (Stats.overhead_eliminated ~baseline:1.0 ~unopt:gb ~opt:gs);
  if gs < 1.0 then
    note
      "(An elimination above 100%% means the Segue geomean dipped below native: mcf's 32-bit \
       pointer compression outweighs the residual sandboxing cost. Sharing one compiler \
       across all strategies removes the compiler-quality gap the paper's toolchains have; \
       see EXPERIMENTS.md.)"

(* ------------------------------------------------------------------ *)
(* Table 2: compiled binary sizes.                                     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2 - Compiled binary sizes, stock Wasm vs Segue (paper: median -5.9%)";
  let t = Table.create ~headers:[ "benchmark"; "wasm2c"; "wasm2c+segue"; "size reduction" ] in
  let reductions = ref [] in
  List.iter
    (fun (k : Kernel.t) ->
      let base = Kernel.code_size ~strategy:Strategy.wasm_default k in
      let segue = Kernel.code_size ~strategy:Strategy.segue k in
      let reduction = float_of_int (base - segue) /. float_of_int base *. 100.0 in
      reductions := reduction :: !reductions;
      Table.add_row t
        [ k.Kernel.name; Printf.sprintf "%d B" base; Printf.sprintf "%d B" segue;
          Printf.sprintf "%.1f%%" reduction ])
    Sfi_workloads.Spec2006.all;
  print_table t;
  note "Median size reduction: %.1f%% (paper: 5.9%%)." (Stats.median !reductions)

(* ------------------------------------------------------------------ *)
(* Sec 6.1: Segue under explicit bounds checks.                        *)
(* ------------------------------------------------------------------ *)

let bounds () =
  section
    "Sec 6.1 - Segue on engines with explicit bounds checks (paper: removes 25.2% of overhead)";
  let t = Table.create ~headers:[ "benchmark"; "bounds"; "bounds+segue" ] in
  let rows, gb, gs =
    strategies_vs_native Sfi_workloads.Spec2006.all ~base:Strategy.wasm_bounds_checked
      ~opt:Strategy.segue_bounds_checked
  in
  List.iter
    (fun ((k : Kernel.t), _, nb, ns) ->
      Table.add_row t [ k.Kernel.name; Table.cell_float nb; Table.cell_float ns ])
    rows;
  Table.add_row t [ "geomean"; Table.cell_float gb; Table.cell_float gs ];
  print_table t;
  note "Segue eliminates %.1f%% of bounds-checked overhead (paper: 25.2%%)."
    (Stats.overhead_eliminated ~baseline:1.0 ~unopt:gb ~opt:gs)

(* ------------------------------------------------------------------ *)
(* Sec 6.1: Firefox font rendering and XML parsing.                    *)
(* ------------------------------------------------------------------ *)

let firefox () =
  section
    "Sec 6.1 - Firefox library sandboxing (paper: font 264/356/287 ms, Segue removes 75%; XML \
     331/381/347 ms, 68%)";
  let t =
    Table.create
      ~headers:[ "workload"; "native"; "sandboxed"; "sandboxed+segue"; "overhead eliminated" ]
  in
  let scenario name f =
    let native = f ~strategy:Strategy.native in
    let base = f ~strategy:Strategy.wasm_default in
    let segue = f ~strategy:Strategy.segue in
    let eliminated =
      Stats.overhead_eliminated ~baseline:native.Sfi_workloads.Firefox.total_ns
        ~unopt:base.Sfi_workloads.Firefox.total_ns ~opt:segue.Sfi_workloads.Firefox.total_ns
    in
    Table.add_row t
      [
        name;
        Printf.sprintf "%.1f ms" (native.Sfi_workloads.Firefox.total_ns /. 1e6);
        Printf.sprintf "%.1f ms" (base.Sfi_workloads.Firefox.total_ns /. 1e6);
        Printf.sprintf "%.1f ms" (segue.Sfi_workloads.Firefox.total_ns /. 1e6);
        Printf.sprintf "%.0f%%" eliminated;
      ]
  in
  scenario "font rendering" (fun ~strategy ->
      Sfi_workloads.Firefox.run_font ~strategy ~glyphs:12000 ());
  scenario "XML (SVG) parsing" (fun ~strategy ->
      Sfi_workloads.Firefox.run_xml ~strategy ~repeats:30 ());
  print_table t;
  let fast = Sfi_workloads.Firefox.run_font ~strategy:Strategy.segue ~glyphs:12000 () in
  let slow =
    Sfi_workloads.Firefox.run_font ~fsgsbase_available:false ~strategy:Strategy.segue
      ~glyphs:12000 ()
  in
  note
    "FSGSBASE matters for per-call base switching: font+segue costs %.1f ms with user-level \
     wrgsbase vs %.1f ms via the arch_prctl fallback on pre-IvyBridge CPUs (sec 4.1)."
    (fast.Sfi_workloads.Firefox.total_ns /. 1e6)
    (slow.Sfi_workloads.Firefox.total_ns /. 1e6)

(* ------------------------------------------------------------------ *)
(* Figure 4: Sightglass on WAMR.                                       *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section
    "Figure 4 - Sightglass on WAMR (paper: mostly noise; memmove +35.6% and sieve +48.7% \
     slower under full Segue from lost vectorization; loads-only Segue has no slowdowns)";
  let t =
    Table.create
      ~headers:[ "benchmark"; "wamr"; "wamr+segue"; "wamr+segue-loads"; "segue vs wamr" ]
  in
  List.iter
    (fun (k : Kernel.t) ->
      let native = Kernel.run ~vectorize:true ~strategy:Strategy.native k in
      let run s = Kernel.run ~vectorize:true ~strategy:s k in
      let base = run Strategy.wasm_default in
      let segue = run Strategy.segue in
      let loads = run Strategy.segue_loads_only in
      let norm (m : Kernel.measurement) =
        float_of_int m.Kernel.cycles /. float_of_int native.Kernel.cycles
      in
      Table.add_row t
        [
          k.Kernel.name;
          Table.cell_float (norm base);
          Table.cell_float (norm segue);
          Table.cell_float (norm loads);
          Table.cell_pct
            ((float_of_int segue.Kernel.cycles /. float_of_int base.Kernel.cycles -. 1.0)
            *. 100.0);
        ])
    Sfi_workloads.Sightglass.all;
  print_table t;
  let m = Lazy.force Sfi_workloads.Sightglass.memmove.Kernel.wasm in
  note
    "Vectorizer status: %d loop(s) vectorized under base-reg, %d under full Segue (the pass \
     does not recognize segment-relative operands, sec 4.2)."
    (Sfi_core.Vectorize.loops_vectorized Strategy.wasm_default m)
    (Sfi_core.Vectorize.loops_vectorized Strategy.segue m)

(* ------------------------------------------------------------------ *)
(* Sec 6.2: PolybenchC and Dhrystone.                                  *)
(* ------------------------------------------------------------------ *)

let polybench () =
  section
    "Sec 6.2 - PolybenchC and Dhrystone on WAMR (paper: Wasm 6% faster than native, Segue \
     10%; Dhrystone 9.7% -> 28.2% faster)";
  let t = Table.create ~headers:[ "benchmark"; "wamr"; "wamr+segue"; "native dTLB/dcache" ] in
  let wamr suite = strategies_vs_native suite ~base:Strategy.wasm_default ~opt:Strategy.segue in
  let rows, gb, gs = wamr Sfi_workloads.Polybench.all in
  List.iter
    (fun ((k : Kernel.t), (native : Kernel.measurement), nb, ns) ->
      Table.add_row t
        [
          k.Kernel.name; Table.cell_float nb; Table.cell_float ns;
          Printf.sprintf "%d/%d" native.Kernel.dtlb_misses native.Kernel.dcache_misses;
        ])
    rows;
  Table.add_row t [ "geomean"; Table.cell_float gb; Table.cell_float gs; "" ];
  print_table t;
  note
    "Polybench: Wasm runs %.1f%% %s native; with Segue %.1f%% %s (paper: 6%% and 10%% faster \
     - the native layout pays for 8-byte elements)."
    (Float.abs ((1.0 -. gb) *. 100.0))
    (if gb < 1.0 then "faster than" else "slower than")
    (Float.abs ((1.0 -. gs) *. 100.0))
    (if gs < 1.0 then "faster" else "slower");
  match wamr [ Sfi_workloads.Polybench.dhrystone ] with
  | [ (_, _, db, ds) ], _, _ ->
      note
        "Dhrystone: wasm %.3f, wasm+segue %.3f of native runtime (paper: 0.91 and 0.78 - Wasm \
         faster than native, Segue widening the gap)."
        db ds
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Figure 5: SPEC CPU 2017 on LFI.                                     *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section
    "Figure 5 - Segue on LFI: SPEC CPU 2017 normalized to native (paper: 17.4% -> 9.4% \
     geomean overhead; Segue eliminates 46%)";
  let t = Table.create ~headers:[ "benchmark"; "lfi"; "lfi+segue" ] in
  let rows, gl, gs =
    vs_native ~cycles:(fun r -> r.Lfi.cycles) Sfi_workloads.Spec2017.all (fun k ->
        let m = Lazy.force k.Kernel.wasm and entry = k.Kernel.entry and args = k.Kernel.args in
        let native = Lfi.run_native m ~entry ~args in
        let lfi = Lfi.run_lfi ~segue:false m ~entry ~args in
        (native, lfi, Lfi.run_lfi ~segue:true m ~entry ~args))
  in
  List.iter
    (fun ((k : Kernel.t), _, nl, ns) ->
      Table.add_row t [ k.Kernel.name; Table.cell_float nl; Table.cell_float ns ])
    rows;
  Table.add_row t [ "geomean"; Table.cell_float gl; Table.cell_float gs ];
  print_table t;
  note
    "LFI overhead %.1f%% -> %.1f%% with Segue: %.0f%% of the overhead eliminated (paper: \
     17.4%% -> 9.4%%, 46%%)."
    ((gl -. 1.0) *. 100.0)
    ((gs -. 1.0) *. 100.0)
    (Stats.overhead_eliminated ~baseline:1.0 ~unopt:gl ~opt:gs)

(* ------------------------------------------------------------------ *)
(* Table 1: ColorGuard safety invariants + verification findings.      *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1 - ColorGuard safety invariants in Wasmtime (and the sec 5.2 findings)";
  let t = Table.create ~headers:[ "#"; "invariant" ] in
  List.iter (fun (n, d) -> Table.add_row t [ string_of_int n; d ]) Invariants.descriptions;
  print_table t;
  let params =
    {
      Pool.num_slots = 1000;
      max_memory_bytes = 408 * Units.mib;
      expected_slot_bytes = 408 * Units.mib;
      guard_bytes = 8 * Units.gib;
      pre_guard_enabled = true;
      num_pkeys_available = 15;
      stripe_enabled = true;
    }
  in
  (match Pool.compute params with
  | Ok layout ->
      let violations = Invariants.check layout in
      note "Striped 408 MiB x 1000 layout: %d invariant violations (stripes=%d, stride=%s)."
        (List.length violations) layout.Pool.num_stripes
        (Units.to_string layout.Pool.slot_bytes)
  | Error msg -> note "layout rejected: %s" msg);
  (* The saturating-addition bug found by verification (sec 5.2). *)
  let adversarial =
    {
      Pool.default_params with
      num_slots = 4096;
      expected_slot_bytes = Units.align_up (max_int / 4096) Units.wasm_page_size;
      num_pkeys_available = 15;
    }
  in
  (match Pool.compute ~arith:Checked.Checked ~defensive:false adversarial with
  | Error msg -> note "Checked arithmetic rejects the adversarial configuration: %s." msg
  | Ok _ -> note "UNEXPECTED: checked arithmetic accepted the adversarial configuration");
  (match Pool.compute ~arith:Checked.Saturating ~defensive:false adversarial with
  | Ok layout ->
      let violations = Invariants.check layout in
      note
        "Saturating arithmetic (the upstream bug) silently built a layout violating %d \
         invariant(s):"
        (List.length violations);
      List.iter
        (fun v -> note "  - %s" (Format.asprintf "%a" Invariants.pp_violation v))
        violations
  | Error msg -> note "saturating build failed: %s" msg);
  let unaligned = { Pool.default_params with Pool.max_memory_bytes = (3 * Units.mib) + 4096 } in
  (match Pool.compute ~defensive:false unaligned with
  | Ok layout ->
      note "Pre-verification allocator accepts unaligned max_memory_bytes; the checker flags: %s"
        (String.concat "; "
           (List.map
              (fun (v : Invariants.violation) -> Printf.sprintf "inv %d" v.Invariants.number)
              (Invariants.check layout)))
  | Error msg -> note "unaligned params rejected: %s" msg);
  match Pool.compute ~defensive:true unaligned with
  | Error msg -> note "Post-verification (defensive) allocator rejects them up front: %s." msg
  | Ok _ -> note "UNEXPECTED: defensive allocator accepted unaligned parameters"

(* ------------------------------------------------------------------ *)
(* Sec 6.4.1: transition microbenchmark.                               *)
(* ------------------------------------------------------------------ *)

let transitions () =
  section
    "Sec 6.4.1 - Transition cost (paper: 30.34 ns -> 51.52 ns per transition, ~20 ns / 44 \
     cycles for the pkru switch)";
  let m =
    let open Sfi_wasm.Builder in
    let b = create ~memory_pages:1 () in
    let f = declare b "noop" ~params:[] ~results:[ Sfi_wasm.Ast.I32 ] () in
    define b f [ i32 7 ];
    build b
  in
  let measure ~colorguard =
    let cfg = { (Codegen.default_config ()) with Codegen.colorguard } in
    let compiled = Codegen.compile cfg m in
    let allocator =
      if colorguard then striped_pool () else Runtime.Simple { reservation = 4 * Units.gib }
    in
    let engine = Runtime.create_engine ~allocator compiled in
    warm_invokes engine "noop" ~reps:10_000;
    Runtime.elapsed_ns engine /. float_of_int (Runtime.transitions engine)
  in
  let plain = measure ~colorguard:false in
  let cg = measure ~colorguard:true in
  note
    "Per-transition cost: %.2f ns without ColorGuard, %.2f ns with (+%.2f ns; paper: 30.34 \
     -> 51.52 ns, +21.18 ns)."
    plain cg (cg -. plain)

(* ------------------------------------------------------------------ *)
(* Sec 6.4.2: scaling microbenchmark.                                  *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Sec 6.4.2 - Pool scaling with 408 MiB slots (paper: 14,582 -> 218,716 slots, ~15x)";
  let report =
    Colorguard.scaling
      {
        Pool.default_params with
        num_slots = 16;
        max_memory_bytes = 408 * Units.mib;
        expected_slot_bytes = 408 * Units.mib;
        guard_bytes = 8 * Units.gib;
        num_pkeys_available = 15;
      }
  in
  let t = Table.create ~headers:[ "configuration"; "slots"; "per-slot stride" ] in
  Table.add_row t
    [ "guard regions only"; string_of_int report.Colorguard.unstriped_slots;
      Units.to_string report.Colorguard.unstriped_stride ];
  Table.add_row t
    [ "ColorGuard (15 keys)"; string_of_int report.Colorguard.striped_slots;
      Units.to_string report.Colorguard.striped_stride ];
  print_table t;
  note
    "Density increase: %.1fx (paper: ~15x). Classic Wasm limit: %d instances; Wasmtime's \
     shared-guard scheme: %d (sec 2: 16K and ~21K)."
    report.Colorguard.factor
    (Colorguard.classic_max_instances ())
    (Colorguard.wasmtime_default_max_instances ());
  let space = Sfi_vmem.Space.create ~max_map_count:64 () in
  let rec fill i =
    if i >= 64 then i
    else
      match
        Sfi_vmem.Space.map space ~addr:(0x10000000 + (i * 0x10000)) ~len:4096
          ~prot:Sfi_vmem.Prot.rw
      with
      | Ok () -> fill (i + 1)
      | Error _ -> i
  in
  note
    "Deployment note: each colored stripe is its own VMA; with vm.max_map_count=64 the \
     kernel model stops at %d mappings - production deployments must raise the 65,530 \
     default (sec 5.1)."
    (fill 0)

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: ColorGuard vs multiprocess scaling.                *)
(* ------------------------------------------------------------------ *)

let process_counts = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]

(* A metric-key spelling of each figure workload. *)
let workload_key = function
  | Fworkloads.Templating -> "templating"
  | Fworkloads.Hash_balance -> "hash"
  | Fworkloads.Regex_filter -> "regex"
  | Fworkloads.Micro_kv -> "micro_kv"

(* Raise naming every (holds, failure message) check that does not hold. *)
let assert_bands name checks =
  match List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks with
  | [] -> ()
  | failures -> failwith (name ^ ": " ^ String.concat "; " failures)

let fig6 () =
  section
    "Figure 6 - Multiprocess scaling vs ColorGuard: per-core throughput gain (paper: grows \
     with process count, max ~29%)";
  let gains =
    List.map
      (fun w ->
        let cfg = Sim.default_config ~workload:w () in
        (w, List.map (fun k -> (k, Sim.throughput_gain ~workload:w ~processes:k cfg)) process_counts))
      Fworkloads.all
  in
  let t =
    Table.create ~headers:("processes" :: List.map (fun w -> Fworkloads.name w) Fworkloads.all)
  in
  List.iter
    (fun k ->
      Table.add_row t
        (string_of_int k :: List.map (fun (_, g) -> Table.cell_pct (List.assoc k g)) gains))
    process_counts;
  print_table t;
  (* The Strong claim, as bands: one process pays no switch tax, so the
     gain there is noise around 0; the curve's peak is near the paper's
     ~29%. *)
  let peak g = List.fold_left (fun acc (_, x) -> Float.max acc x) neg_infinity g in
  let checks =
    List.concat_map
      (fun (w, g) ->
        let key = workload_key w and at1 = List.assoc 1 g and top = peak g in
        metric Exact (Printf.sprintf "fig6_gain_%s_1p" key) at1;
        metric Exact (Printf.sprintf "fig6_gain_%s_15p" key) (List.assoc 15 g);
        metric Exact (Printf.sprintf "fig6_max_gain_%s" key) top;
        [
          ( Float.abs at1 <= 3.0,
            Printf.sprintf "%s gains %.1f%% at 1 process, outside +-3%%" key at1 );
          ( top >= 15.0 && top <= 40.0,
            Printf.sprintf "%s peaks at %.1f%%, outside [15%%, 40%%]" key top );
        ])
      gains
  in
  metric Exact "fig6_max_gain"
    (List.fold_left (fun acc (_, g) -> Float.max acc (peak g)) neg_infinity gains);
  assert_bands "fig6" checks

let fig7 () =
  section
    "Figures 7a/7b - Context switches and dTLB misses (paper: ColorGuard flat; multiprocess \
     grows with process count)";
  let t =
    Table.create
      ~headers:
        [ "processes"; "MP ctx switches"; "MP dTLB misses"; "CG transitions"; "CG dTLB misses" ]
  in
  let cfg = { (Sim.default_config ()) with Sim.duration_ns = 40.0e6 } in
  let rows =
    List.map
      (fun k ->
        let mp = Sim.run { cfg with Sim.mode = Sim.Multiprocess k } in
        let cg = Sim.run { cfg with Sim.mode = Sim.Colorguard } in
        Table.add_row t
          [
            string_of_int k;
            string_of_int mp.Sim.context_switches;
            string_of_int mp.Sim.dtlb_misses;
            string_of_int cg.Sim.user_transitions;
            string_of_int cg.Sim.dtlb_misses;
          ];
        (k, (mp, cg)))
      [ 1; 3; 5; 7; 9; 11; 13; 15 ]
  in
  print_table t;
  let mp1, _ = List.assoc 1 rows and mp15, _ = List.assoc 15 rows in
  let cg_misses = List.map (fun (_, (_, cg)) -> cg.Sim.dtlb_misses) rows in
  metric Exact "fig7_mp_switches_1p" (float_of_int mp1.Sim.context_switches);
  metric Exact "fig7_mp_switches_15p" (float_of_int mp15.Sim.context_switches);
  metric Exact "fig7_mp_dtlb_misses_1p" (float_of_int mp1.Sim.dtlb_misses);
  metric Exact "fig7_mp_dtlb_misses_15p" (float_of_int mp15.Sim.dtlb_misses);
  metric Exact "fig7_cg_dtlb_misses" (float_of_int (List.hd cg_misses));
  (* The shape claim: one process never switches, and multiprocess
     switches and misses rise by 15 processes while ColorGuard, one
     process whatever the count, misses exactly the same. *)
  assert_bands "fig7"
    [
      (mp1.Sim.context_switches = 0, "MP switches at 1 process");
      (mp15.Sim.context_switches > mp1.Sim.context_switches, "MP switches do not rise");
      (mp15.Sim.dtlb_misses > mp1.Sim.dtlb_misses, "MP dTLB misses do not rise");
      (List.for_all (( = ) (List.hd cg_misses)) cg_misses, "CG dTLB misses vary");
    ]

(* ------------------------------------------------------------------ *)
(* Degraded mode: the Figure 6 comparison with misbehaving tenants.    *)
(* ------------------------------------------------------------------ *)

let faults () =
  section
    "Degraded mode - Figure 6 under misbehaving tenants: per-instance recovery (ColorGuard) \
     vs per-process blast radius (multiprocess)";
  let t =
    Table.create
      ~headers:
        [
          "trap rate";
          "CG avail";
          "CG goodput";
          "CG collateral";
          "MP avail";
          "MP goodput";
          "MP collateral";
        ]
  in
  (* A 5 us preemption quantum (below the ~16 us service time) and tight
     IO keep several requests mid-service at any instant, so a process
     crash has co-resident victims — the regime where the blast radius is
     visible. *)
  let cfg =
    {
      (Sim.default_config ~workload:Fworkloads.Hash_balance ()) with
      Sim.epoch_ns = 5_000.0;
      io_mean_ns = 200_000.0;
    }
  in
  List.iter
    (fun trap_rate ->
      (* Same load, same fault rate, two isolation strategies: ColorGuard
         pays one instance per crash, multiprocess loses every co-resident
         in-flight request. *)
      let faults = { cfg.Sim.faults with Sim.trap_rate } in
      let cg = Sim.run { cfg with Sim.faults } in
      let mp = Sim.run { cfg with Sim.mode = Sim.Multiprocess 8; faults } in
      Table.add_row t
        [
          Printf.sprintf "%.2f" trap_rate;
          Printf.sprintf "%.4f" cg.Sim.availability;
          Table.cell_float cg.Sim.goodput_rps;
          string_of_int cg.Sim.collateral_aborts;
          Printf.sprintf "%.4f" mp.Sim.availability;
          Table.cell_float mp.Sim.goodput_rps;
          string_of_int mp.Sim.collateral_aborts;
        ])
    [ 0.0; 0.02; 0.05; 0.10 ];
  print_table t;
  (* Key exhaustion: striping degrades to guard regions, never refuses. *)
  let p =
    {
      Pool.default_params with
      num_slots = 16;
      max_memory_bytes = 4 * Units.mib;
      expected_slot_bytes = 4 * Units.mib;
      guard_bytes = 16 * Units.mib;
      num_pkeys_available = 1;
      stripe_enabled = true;
    }
  in
  (match Pool.compute_with_fallback p with
  | Ok (_, status) ->
      note "striping with 1 key: %s" (Format.asprintf "%a" Pool.pp_stripe_status status)
  | Error msg -> note "striping with 1 key: rejected (%s)" msg);
  note "(paper: a trap kills one instance under ColorGuard; under multiprocess it takes the \
        process and every co-resident request with it)"

(* ------------------------------------------------------------------ *)
(* Overload: adaptive admission control and per-tenant breakers vs     *)
(* uncontrolled congestion collapse, at 2x the serving capacity.       *)
(* ------------------------------------------------------------------ *)

let overload () =
  section
    "Overload - adaptive admission (CoDel sojourn + token buckets) and per-tenant circuit \
     breakers vs uncontrolled queueing, at 2x serving capacity with a 1 ms SLO";
  (* Operating point: ~16.2 us of CPU per hash request caps the single
     simulated core at ~62k req/s. Each closed-loop tenant re-arrives
     ~1.55 ms after completing, so 96 tenants offer ~1x capacity and 192
     offer ~2x. Round-robin scheduling over an 8-slot pool makes the
     excess queue at admission; the SLO says a completion slower than
     1 ms end-to-end is worthless to the client. *)
  let scenario ?(crash = []) ~concurrency ~admission () =
    let ov =
      {
        Sim.no_overload with
        Sim.pool_slots = Some 8;
        request_deadline_ns = Some 1.0e6;
        admission = (if admission then Some Runtime.default_admission else None);
        breaker = (if admission then Some Sfi_faas.Breaker.default_config else None);
        degradation = admission;
        hedged_retries = admission;
        crash_tenants = crash;
      }
    in
    Sim.run
      {
        (Sim.default_config ~workload:Fworkloads.Hash_balance ~churn:true ~overload:ov ())
        with
        Sim.concurrency;
        duration_ns = 40.0e6;
        io_mean_ns = 1_550_000.0;
        epoch_ns = 5_000.0;
      }
  in
  let max_healthy_p99 ?(skip = []) (r : Sim.result) =
    Array.fold_left
      (fun acc t ->
        if List.mem t.Sim.t_id skip then acc else Float.max acc t.Sim.t_p99_e2e_ns)
      0.0 r.Sim.tenants
  in
  let base = scenario ~concurrency:96 ~admission:true () in
  let un = scenario ~concurrency:192 ~admission:false () in
  let ctl = scenario ~concurrency:192 ~admission:true () in
  let t =
    Table.create
      ~headers:
        [ "scenario"; "tenants"; "goodput"; "retention"; "SLO miss"; "shed"; "p99 e2e ms" ]
  in
  let row name (r : Sim.result) n =
    Table.add_row t
      [
        name;
        string_of_int n;
        Table.cell_float r.Sim.goodput_rps;
        Printf.sprintf "%.2f" (r.Sim.goodput_rps /. base.Sim.goodput_rps);
        string_of_int r.Sim.deadline_misses;
        string_of_int (Sim.sheds r);
        Printf.sprintf "%.2f" (max_healthy_p99 r /. 1e6);
      ]
  in
  row "1x baseline" base 96;
  row "2x uncontrolled" un 192;
  row "2x + admission" ctl 192;
  print_table t;
  let retention = ctl.Sim.goodput_rps /. base.Sim.goodput_rps in
  let collapse = un.Sim.goodput_rps /. base.Sim.goodput_rps in
  metric Exact "overload_baseline_goodput_rps" base.Sim.goodput_rps;
  metric Exact "overload_uncontrolled_goodput_rps" un.Sim.goodput_rps;
  metric Exact "overload_controlled_goodput_rps" ctl.Sim.goodput_rps;
  metric Exact "overload_goodput_retention" retention;
  metric Exact "overload_uncontrolled_retention" collapse;
  note
    "At 2x load the uncontrolled queue serves everyone late (goodput x%.2f); shedding at \
     admission keeps served requests inside the SLO (goodput x%.2f)."
    collapse retention;
  (* One tenant crash-loops; its breaker opens and the healthy tenants
     keep their tail latency. *)
  let quiet = scenario ~concurrency:96 ~admission:true () in
  let crash = scenario ~concurrency:96 ~admission:true ~crash:[ 0 ] () in
  let p99_quiet = max_healthy_p99 quiet and p99_crash = max_healthy_p99 ~skip:[ 0 ] crash in
  let opens =
    Array.fold_left (fun acc t -> acc + t.Sim.t_breaker_opens) 0 crash.Sim.tenants
  in
  metric Exact "overload_healthy_p99_ms" (p99_crash /. 1e6);
  metric Exact "overload_crash_breaker_opens" (float_of_int opens);
  note
    "Crash-looping tenant 0: breaker opened %d times, %d fast-fails; healthy-tenant p99 \
     %.2f ms vs %.2f ms with no misbehaver."
    opens crash.Sim.breaker_fast_fails (p99_crash /. 1e6) (p99_quiet /. 1e6);
  if retention < 0.75 then
    failwith
      (Printf.sprintf "overload: controlled goodput retention %.2f below 0.75" retention);
  if p99_crash > 2.0 *. Float.max p99_quiet 1.0 then
    failwith
      (Printf.sprintf "overload: healthy-tenant p99 %.2f ms not bounded (quiet %.2f ms)"
         (p99_crash /. 1e6) (p99_quiet /. 1e6));
  if opens = 0 then failwith "overload: crash-looping tenant never tripped its breaker"

(* ------------------------------------------------------------------ *)
(* Lifecycle: CoW instantiation, dirty-page recycle, transition        *)
(* classes, and FaaS goodput under churn.                              *)
(* ------------------------------------------------------------------ *)

let lifecycle () =
  section
    "Lifecycle - copy-on-write instantiation and dirty-page recycle (Wasmtime-style pooling \
     cold starts; transition classes per Kolosick et al.)";
  let os_page = Sfi_vmem.Space.page_size in
  let mk_module pages =
    let open Sfi_wasm.Builder in
    let b = create ~memory_pages:pages ~max_memory_pages:pages () in
    let f = declare b "run" ~params:[] ~results:[ Sfi_wasm.Ast.I32 ] () in
    define b f [ i32 1 ];
    build b
  in
  let fresh_engine pages =
    Runtime.create_engine (Codegen.compile (Codegen.default_config ()) (mk_module pages))
  in
  (* Warm recycle+instantiate, dirtying exactly [dirty] OS pages of heap
     per cycle: the recycle must pay for those pages and nothing else.
     Timed in batches, reporting the fastest batch — the usual defense
     against GC pauses and scheduler noise in in-process wall timing. *)
  let warm_cycle engine ~dirty ~reps =
    let batches = 8 in
    let per_batch = max 1 (reps / batches) in
    let inst = ref (Runtime.instantiate engine) in
    let z0 = (Runtime.metrics engine).Runtime.m_pages_zeroed_on_recycle in
    let best = ref infinity in
    for _ = 1 to batches do
      let batch = ref 0.0 in
      for _ = 1 to per_batch do
        for p = 0 to dirty - 1 do
          Runtime.write_memory !inst ~addr:(p * os_page) "\001"
        done;
        let (), s =
          timed (fun () ->
              Runtime.release !inst;
              inst := Runtime.instantiate engine)
        in
        batch := !batch +. s
      done;
      if !batch < !best then best := !batch
    done;
    let z1 = (Runtime.metrics engine).Runtime.m_pages_zeroed_on_recycle in
    Runtime.release !inst;
    ( !best *. 1e9 /. float_of_int per_batch,
      float_of_int (z1 - z0) /. float_of_int (batches * per_batch) )
  in
  let reps = 400 in
  (* (a) Recycle cost scales with the dirty fraction, on a fixed 4 MiB
     heap (1024 OS pages). *)
  let heap_pages = 64 in
  let engine = fresh_engine heap_pages in
  let t = Table.create ~headers:[ "dirty OS pages"; "warm cycle ns"; "pages zeroed/recycle" ] in
  List.iter
    (fun dirty ->
      let ns, zeroed = warm_cycle engine ~dirty ~reps in
      metric Host (Printf.sprintf "warm_cycle_ns_dirty_%d" dirty) ns;
      Table.add_row t
        [ string_of_int dirty; Printf.sprintf "%.0f" ns; Printf.sprintf "%.1f" zeroed ])
    [ 0; 4; 16; 64; 256 ];
  print_table t;
  (* (b) ... and not with the heap size: same dirty footprint on a 128 KiB
     (2 Wasm pages) vs an 8 MiB (128 Wasm pages) heap. The pre-refactor
     runtime madvised the whole heap. The evidence is the pages each
     recycle zeroes, which must be equal; the host time is reported. *)
  let dirty = 16 in
  let small, small_zeroed = warm_cycle (fresh_engine 2) ~dirty ~reps in
  let large, large_zeroed = warm_cycle (fresh_engine 128) ~dirty ~reps in
  metric Exact "warm_cycle_pages_zeroed_heap_2" small_zeroed;
  metric Exact "warm_cycle_pages_zeroed_heap_128" large_zeroed;
  metric Host "warm_cycle_heap_ratio" (large /. small);
  let heap_os_pages wasm_pages = wasm_pages * Sfi_wasm.Ast.page_size / os_page in
  note
    "Heap-size independence: after %d dirty pages a recycle zeroes %.1f pages on a 128 KiB \
     heap and %.1f on an 8 MiB heap (O(min_pages) recycling would zero %d and %d); host time \
     %.0f vs %.0f ns (ratio %.2fx)."
    dirty small_zeroed large_zeroed (heap_os_pages 2) (heap_os_pages 128) small large
    (large /. small);
  if small_zeroed <> large_zeroed then
    failwith
      (Printf.sprintf "lifecycle: recycle zeroes %.1f pages on the small heap, %.1f on the large"
         small_zeroed large_zeroed);
  (* (c) Cold vs warm instantiation rate. *)
  let rate_engine = fresh_engine 2 in
  let n = 512 in
  let insts, cold_s = timed (fun () -> Array.init n (fun _ -> Runtime.instantiate rate_engine)) in
  Array.iter Runtime.release insts;
  let (), warm_s =
    timed (fun () ->
        for _ = 1 to n do
          Runtime.release (Runtime.instantiate rate_engine)
        done)
  in
  let cold_rate = float_of_int n /. cold_s and warm_rate = float_of_int n /. warm_s in
  metric Host "cold_instantiations_per_s" cold_rate;
  metric Host "warm_instantiations_per_s" warm_rate;
  let m = Runtime.metrics rate_engine in
  note
    "Instantiation rate: %.0f/s cold (map host block + attach CoW backing), %.0f/s warm \
     (recycled slot; %d cold + %d warm performed)."
    cold_rate warm_rate m.Runtime.m_instantiations_cold m.Runtime.m_instantiations_warm;
  (* (d) Transition classes: the same import registered Pure / Readonly /
     Full, on a ColorGuard-striped pool (so Full pays two wrpkru per call
     and the cheap classes elide them). *)
  let tmod =
    let open Sfi_wasm.Builder in
    let b = create ~memory_pages:1 () in
    let imp = import b "observe" ~params:[ Sfi_wasm.Ast.I32 ] ~results:[ Sfi_wasm.Ast.I32 ] in
    let f = declare b "run" ~params:[] ~results:[ Sfi_wasm.Ast.I32 ] () in
    define b f [ i32 21; call imp ];
    build b
  in
  let class_cost clazz =
    let compiled =
      Codegen.compile { (Codegen.default_config ()) with Codegen.colorguard = true } tmod
    in
    let eng = Runtime.create_engine ~allocator:(striped_pool ()) compiled in
    Runtime.register_import ~clazz eng "observe" (fun _ args -> args.(0));
    let reps = 5_000 in
    warm_invokes eng "run" ~reps;
    (Runtime.elapsed_ns eng /. float_of_int reps, Runtime.metrics eng)
  in
  let full_ns, full_m = class_cost Runtime.Full in
  let ro_ns, ro_m = class_cost Runtime.Readonly in
  let pure_ns, pure_m = class_cost Runtime.Pure in
  metric Exact "hostcall_full_ns" full_ns;
  metric Exact "hostcall_readonly_ns" ro_ns;
  metric Exact "hostcall_pure_ns" pure_ns;
  let ct = Table.create ~headers:[ "hostcall class"; "ns/invoke"; "pkru writes elided" ] in
  Table.add_row ct
    [ "full"; Printf.sprintf "%.1f" full_ns; string_of_int full_m.Runtime.m_pkru_writes_elided ];
  Table.add_row ct
    [ "readonly"; Printf.sprintf "%.1f" ro_ns; string_of_int ro_m.Runtime.m_pkru_writes_elided ];
  Table.add_row ct
    [ "pure"; Printf.sprintf "%.1f" pure_ns; string_of_int pure_m.Runtime.m_pkru_writes_elided ];
  print_table ct;
  note
    "Classified springboards skip the stack switch, exception handler and both wrpkru writes \
     (Kolosick et al.: most transitions need almost none of the save/restore work).";
  (* (e) FaaS goodput under churn: every request on a fresh instance, with
     lifecycle work priced at the paper's sec 7 rate of 79 us per 64 KiB
     instance (~4937 ns per OS page). The legacy model bills each
     instantiate at O(min_pages); CoW bills only dirtied pages. *)
  let churn_cfg legacy =
    {
      (Sim.default_config ~workload:Fworkloads.Hash_balance ~churn:true
         ~page_zero_ns:4937.5 ~legacy_lifecycle:legacy ())
      with
      Sim.io_mean_ns = 200_000.0;
      epoch_ns = 50_000.0;
    }
  in
  let cow = Sim.run (churn_cfg false) in
  let legacy = Sim.run (churn_cfg true) in
  let ratio = cow.Sim.goodput_rps /. legacy.Sim.goodput_rps in
  metric Exact "faas_churn_goodput_cow_rps" cow.Sim.goodput_rps;
  metric Exact "faas_churn_goodput_legacy_rps" legacy.Sim.goodput_rps;
  metric Exact "faas_churn_goodput_ratio" ratio;
  let ft = Table.create ~headers:[ "lifecycle model"; "goodput rps"; "recycles"; "pages zeroed" ] in
  Table.add_row ft
    [ "legacy O(min_pages)"; Table.cell_float legacy.Sim.goodput_rps;
      string_of_int legacy.Sim.recycles; string_of_int legacy.Sim.pages_zeroed ];
  Table.add_row ft
    [ "CoW O(dirty pages)"; Table.cell_float cow.Sim.goodput_rps;
      string_of_int cow.Sim.recycles; string_of_int cow.Sim.pages_zeroed ];
  print_table ft;
  note "High-churn goodput: %.2fx CoW over the pre-refactor lifecycle." ratio;
  if ratio < 2.0 then failwith (Printf.sprintf "lifecycle: churn goodput ratio %.2f < 2x" ratio)

(* ------------------------------------------------------------------ *)
(* Sec 7: ColorGuard on ARM MTE.                                       *)
(* ------------------------------------------------------------------ *)

let mte () =
  section
    "Sec 7 - ColorGuard with ARM MTE (paper: init 79 us -> 2,182 us; teardown 29 us -> 377 \
     us per 64 KiB instance)";
  let cost = Colorguard.Mte_cost.default in
  let instances = 40 in
  let memory_bytes = 64 * Units.kib in
  let mte_store = Sfi_vmem.Mte.create () in
  let init_plain = Colorguard.Mte_cost.init_instance cost mte_store ~memory_bytes ~tag:0 in
  let init_mte = Colorguard.Mte_cost.init_instance cost mte_store ~memory_bytes ~tag:3 in
  let down_mte = Colorguard.Mte_cost.teardown_instance cost mte_store ~memory_bytes ~mte:true in
  let down_plain =
    Colorguard.Mte_cost.teardown_instance cost mte_store ~memory_bytes ~mte:false
  in
  let t = Table.create ~headers:[ "operation"; "no MTE"; "MTE"; "paper" ] in
  Table.add_row t
    [ "init (per 64 KiB instance)"; Printf.sprintf "%.0f us" (init_plain /. 1e3);
      Printf.sprintf "%.0f us" (init_mte /. 1e3); "79 -> 2,182 us" ];
  Table.add_row t
    [ "teardown (madvise)"; Printf.sprintf "%.0f us" (down_plain /. 1e3);
      Printf.sprintf "%.0f us" (down_mte /. 1e3); "29 -> 377 us" ];
  print_table t;
  note
    "Observation 1: user-level st2g tags only 32 B per instruction - %d instructions per 64 \
     KiB memory; %d instances cost %.1f ms to tag."
    (Sfi_vmem.Mte.user_tag_instructions mte_store)
    instances
    (float_of_int instances *. init_mte /. 1e6);
  note
    "Observation 2: madvise(MADV_DONTNEED) discards MTE tags (MPK colors survive in the \
     PTEs), forcing a full re-tag on every instance recycle.";
  (* The paper's proposed kernel fix: a tag-preserving madvise flag. *)
  let keep = Colorguard.Mte_cost.teardown_keeping_tags cost mte_store ~memory_bytes in
  ignore (Colorguard.Mte_cost.init_instance cost mte_store ~memory_bytes ~tag:3);
  let reinit_same = Colorguard.Mte_cost.reinit_instance cost mte_store ~memory_bytes ~tag:3 in
  let reinit_diff = Colorguard.Mte_cost.reinit_instance cost mte_store ~memory_bytes ~tag:5 in
  note
    "Proposed fix (madvise flag that leaves tags invariant): teardown %.0f us; recycling for \
     the same color re-inits in %.0f us (vs %.0f us today); a different color still pays %.0f \
     us."
    (keep /. 1e3) (reinit_same /. 1e3) (init_mte /. 1e3) (reinit_diff /. 1e3)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 6).                                    *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations - design-choice sensitivity";
  let k = Sfi_workloads.Spec2006.astar in
  let with_frontend cost =
    let native = Kernel.run ~cost ~strategy:Strategy.native k in
    let segue = Kernel.run ~cost ~strategy:Strategy.segue k in
    float_of_int segue.Kernel.cycles /. float_of_int native.Kernel.cycles
  in
  note
    "astar segue-normalized runtime: %.4f with the frontend fetch model, %.4f without \
     (Segue's prefix bytes only cost when decode bandwidth is modeled, sec 6.1's outlier)."
    (with_frontend Cost.default)
    (with_frontend Cost.no_frontend);
  let tlb_heavy = Sfi_workloads.Polybench.atax in
  let tlb_cost levels =
    let tlb = { Sfi_vmem.Tlb.default_config with Sfi_vmem.Tlb.page_walk_levels = levels } in
    let cfg = Codegen.default_config ~strategy:Strategy.wasm_default () in
    let compiled = Codegen.compile cfg (Lazy.force tlb_heavy.Kernel.wasm) in
    let engine = Runtime.create_engine ~tlb compiled in
    let inst = Runtime.instantiate engine in
    Runtime.reset_metrics engine;
    (match Runtime.invoke inst "run" tlb_heavy.Kernel.args with
    | Ok _ -> ()
    | Error e -> failwith (Sfi_x86.Ast.trap_name e));
    (Machine.counters (Runtime.machine engine)).Machine.cycles
  in
  let c4 = tlb_cost 4 and c5 = tlb_cost 5 in
  note
    "atax (TLB-heavy) under 4-level vs 5-level page walks: %d vs %d cycles (+%.1f%%) - why 57-bit address \
     spaces are not a free alternative to ColorGuard (sec 8)."
    c4 c5
    (float_of_int (c5 - c4) /. float_of_int c4 *. 100.0);
  let with_keys keys =
    let params =
      {
        Pool.default_params with
        max_memory_bytes = 512 * Units.mib;
        expected_slot_bytes = 512 * Units.mib;
        num_pkeys_available = keys;
        stripe_enabled = true;
      }
    in
    match Pool.compute params with
    | Ok l -> (l.Pool.num_stripes, l.Pool.slot_bytes)
    | Error msg -> failwith msg
  in
  List.iter
    (fun keys ->
      let stripes, stride = with_keys keys in
      note
        "  %2d keys available -> %2d stripes, stride %s (fewer keys = wider slots: stripes \
         combine with guard space, sec 5.1)."
        keys stripes (Units.to_string stride))
    [ 15; 9; 5; 3 ];
  (* Heterogeneous chains (§3.2's closing idea, implemented in Chain). *)
  let sizes =
    List.concat (List.init 20 (fun i -> [ 4; 8; 4; 64; 16; 4; 128; 8 ] |> List.map (fun m -> (m + (i mod 3)) / 1 * Units.mib)))
  in
  let sizes = List.map (fun s -> Units.align_up s Units.wasm_page_size) sizes in
  let reach = 512 * Units.mib in
  (match Sfi_core.Chain.plan ~reach ~sizes () with
  | Ok chain ->
      let uniform = Sfi_core.Chain.uniform_stripe_footprint ~num_keys:15 ~reach ~sizes in
      note
        "Heterogeneous chains (sec 3.2): %d mixed-size sandboxes chained into %s (%.0f%% \
         utilization, %s padding) vs %s under a uniform stripe — different sizes use colors \
         more efficiently."
        (List.length sizes)
        (Units.to_string chain.Sfi_core.Chain.total_bytes)
        (Sfi_core.Chain.utilization chain *. 100.0)
        (Units.to_string chain.Sfi_core.Chain.padding_bytes)
        (Units.to_string uniform)
  | Error m -> note "chain planning failed: %s" m)

(* ------------------------------------------------------------------ *)
(* Engine: the compiled engine vs the reference interpreter.           *)
(* ------------------------------------------------------------------ *)

let engine_compare () =
  section
    "Engine - reference step interpreter vs the lazily compiled engine (host-side \
     throughput; simulated counters must agree bit-for-bit)";
  let t =
    Table.create
      ~headers:
        [ "kernel"; "engine"; "host ms"; "sim instrs"; "host Minstr/s"; "sb%"; "counters" ]
  in
  let check (k : Kernel.t) =
    let on engine = timed (fun () -> Kernel.run ~engine ~strategy:Strategy.segue k) in
    let rm, rs = on Machine.Reference in
    let cm, cs = on Machine.Compiled in
    let agree =
      rm.Kernel.result = cm.Kernel.result
      && rm.Kernel.cycles = cm.Kernel.cycles
      && rm.Kernel.instructions = cm.Kernel.instructions
      && rm.Kernel.dtlb_misses = cm.Kernel.dtlb_misses
      && rm.Kernel.dcache_misses = cm.Kernel.dcache_misses
    in
    let row name (m : Kernel.measurement) s =
      let sb_pct =
        100.0
        *. float_of_int m.Kernel.tier.Machine.superblock_instructions
        /. float_of_int (max 1 m.Kernel.instructions)
      in
      Table.add_row t
        [
          k.Kernel.name; name;
          Printf.sprintf "%.1f" (s *. 1e3);
          string_of_int m.Kernel.instructions;
          Printf.sprintf "%.1f" (float_of_int m.Kernel.instructions /. s /. 1e6);
          Printf.sprintf "%.0f" sb_pct;
          (if agree then "agree" else "DIVERGED");
        ]
    in
    row "reference" rm rs;
    row "compiled" cm cs;
    if not agree then failwith (k.Kernel.name ^ ": engines diverged");
    (rs, cs)
  in
  let pairs = List.map check [ Sfi_workloads.Polybench.gemm; Sfi_workloads.Polybench.atax ] in
  print_table t;
  let rs = List.fold_left (fun a (r, _) -> a +. r) 0.0 pairs
  and cs = List.fold_left (fun a (_, c) -> a +. c) 0.0 pairs in
  metric Host "compiled_speedup_vs_reference" (rs /. cs);
  note
    "Engine ablation on this subset (identical simulated counters on every kernel): compiled \
     %.2fx reference (blocks compiled on first entry, run as slot ranges with batched charges)."
    (rs /. cs);
  (* Tracing ablation: the same kernel with the default (no sink), an
     explicit null sink, and a live ring sink. The null sink must be free —
     every emission site is one load-and-branch — and the ring sink must
     stay under a few percent. Paired wall timing, below. *)
  let ablate = Sfi_workloads.Polybench.atax in
  let one ?trace () =
    (match trace with Some sink -> Trace.clear sink | None -> ());
    snd (timed (fun () -> Kernel.run ?trace ~strategy:Strategy.segue ablate))
  in
  ignore (one ()) (* warm the code and the kernel's lazy module *);
  let ring = Trace.create_ring () in
  (* Interleave the three configurations within each repetition and take
     the median, over repetitions, of each sink's time over the no-sink
     time of the same repetition: drift across the run (GC heap state,
     neighbours on a shared machine) then moves both sides of a ratio
     alike, and one slow repetition cannot set the figure. *)
  let base = ref [] and null_r = ref [] and ring_r = ref [] in
  for _ = 1 to 7 do
    let b = one () in
    let n = one ~trace:Trace.null () in
    let r = one ~trace:ring () in
    base := b :: !base;
    null_r := (n /. b) :: !null_r;
    ring_r := (r /. b) :: !ring_r
  done;
  let base_s = Stats.median !base in
  let pct ratios = (Stats.median ratios -. 1.0) *. 100.0 in
  let null_pct = pct !null_r and ring_pct = pct !ring_r in
  metric Host "trace_null_overhead_pct" null_pct;
  metric Host "trace_ring_overhead_pct" ring_pct;
  note
    "Tracing ablation (atax on the default compiled engine, median of 7 paired repetitions): no \
     sink %.1f ms, null sink %+.1f%%, ring sink %+.1f%% (%d events). Null must be free; the ring \
     budget is <5%%."
    (base_s *. 1e3) null_pct ring_pct (Trace.length ring);
  (* Wall-clock ablations on shared CI machines are noisy; only a
     pathological regression fails the experiment. *)
  if ring_pct > 25.0 then
    failwith (Printf.sprintf "engine: ring-sink tracing overhead %.1f%% > 25%%" ring_pct)

(* ------------------------------------------------------------------ *)
(* Differential fuzz gate.                                             *)
(* ------------------------------------------------------------------ *)

let fuzz () =
  section
    "Fuzz - seeded differential corpus: reference interpreter vs all six SFI strategies on \
     both engines (sanitizer armed), plus the LFI triple on tame programs";
  let report, wall = timed (fun () -> Sfi_fuzz.Fuzz.run_corpus ~seed:0xC0FFEEL ~count:150 ()) in
  let t = Table.create ~headers:[ "programs"; "executions"; "lfi"; "interp traps"; "wall s" ] in
  Table.add_row t
    [
      string_of_int report.Sfi_fuzz.Fuzz.r_programs;
      string_of_int report.Sfi_fuzz.Fuzz.r_executions;
      string_of_int report.Sfi_fuzz.Fuzz.r_lfi_programs;
      string_of_int report.Sfi_fuzz.Fuzz.r_interp_traps;
      Printf.sprintf "%.2f" wall;
    ];
  print_table t;
  (match report.Sfi_fuzz.Fuzz.r_divergences with
  | [] -> note "No divergences: every semantics agrees on the whole corpus."
  | d :: _ as ds ->
      Format.printf "%a@." Sfi_fuzz.Fuzz.pp_divergence d;
      failwith (Printf.sprintf "fuzz: %d divergence(s)" (List.length ds)))

(* ------------------------------------------------------------------ *)
(* Scale: sharded serving across OCaml domains.                        *)
(* ------------------------------------------------------------------ *)

let scale () =
  section
    "Scale - sharded FaaS serving across OCaml domains (hash placement + deterministic \
     work stealing), 1M+ requests of trace-shaped open-loop load";
  (* Operating point: a Micro-KV request costs ~180 ns of simulated CPU,
     capping one shard's core at ~5.6M req/s. 20M req/s offered over
     60 ms (1.2M arrivals, Zipf 0.6 popularity over 256 tenants, diurnal
     rate) saturates one shard ~3.5x over; four shards clear the whole
     schedule. Goodput is per *simulated* second — each shard serves on
     its own simulated core — so the sweep measures the serving
     architecture, not this machine's core count, and is bit-reproducible
     anywhere. *)
  let tenants = 256 in
  let duration_ns = 60.0e6 in
  let seed = 0x5CA1EL in
  let arrivals =
    Fworkloads.synthesize ~seed ~tenants ~duration_ns
      ~rps:20_000_000.0
      ~shape:(Fworkloads.Diurnal { trough = 0.25 })
      ~popularity:(Fworkloads.Zipf { skew = 0.6 })
      ()
  in
  let offered = Array.length arrivals in
  if offered < 1_000_000 then
    failwith (Printf.sprintf "scale: only %d arrivals synthesized (< 1M)" offered);
  let base =
    {
      (Sim.default_config ~workload:Fworkloads.Micro_kv
         ~overload:
           {
             Sim.no_overload with
             Sim.admission =
               Some { Runtime.default_admission with Runtime.tenant_rate = 60_000.0 };
           }
         ()) with
      Sim.concurrency = tenants;
      duration_ns;
      seed;
      arrivals = Some arrivals;
    }
  in
  let run k = Shard.run (Shard.default_config ~shards:k base) in
  let t =
    Table.create
      ~headers:[ "shards"; "steals"; "completed"; "goodput req/s"; "speedup"; "p99 us" ]
  in
  let goodputs = ref [] in
  let g1 = ref 0.0 in
  List.iter
    (fun k ->
      let rep = run k in
      let r = rep.Shard.r_result in
      let _, _, p99 = Shard.latency_summary r in
      if k = 1 then g1 := r.Sim.goodput_rps;
      goodputs := (k, r.Sim.goodput_rps) :: !goodputs;
      Table.add_row t
        [
          string_of_int k;
          string_of_int rep.Shard.r_steals;
          string_of_int r.Sim.completed;
          Table.cell_float r.Sim.goodput_rps;
          Printf.sprintf "%.2fx" (r.Sim.goodput_rps /. !g1);
          Printf.sprintf "%.2f" (p99 /. 1e3);
        ];
      metric Exact (Printf.sprintf "scale_goodput_%d_shards" k) r.Sim.goodput_rps;
      metric Exact (Printf.sprintf "scale_completed_%d_shards" k) (float_of_int r.Sim.completed);
      metric Exact
        (Printf.sprintf "scale_transitions_%d_shards" k)
        (float_of_int rep.Shard.r_metrics.Runtime.m_transitions))
    [ 1; 2; 4; 8 ];
  print_table t;
  metric Exact "scale_offered_arrivals" (float_of_int offered);
  let g of_k = List.assoc of_k !goodputs in
  let speedup4 = g 4 /. g 1 in
  metric Exact "scale_speedup_4_shards" speedup4;
  note
    "%d arrivals offered; goodput scales x%.2f at 2 shards, x%.2f at 4 (per simulated \
     second; shards serve on independent simulated cores)."
    offered (g 2 /. g 1) speedup4;
  if not (g 2 > g 1 && g 4 > g 2) then
    failwith "scale: goodput not monotonic from 1 to 4 shards";
  if speedup4 < 2.0 then
    failwith (Printf.sprintf "scale: speedup at 4 shards %.2fx < 2x" speedup4);
  (* Determinism: the 4-shard point repeated at the same seed must be
     bit-identical — result, per-tenant stats, and the runtime counters
     harvested from the worker domains. *)
  let a = run 4 and b = run 4 in
  if
    Shard.result_fingerprint a.Shard.r_result <> Shard.result_fingerprint b.Shard.r_result
    || Shard.metrics_fingerprint a.Shard.r_metrics
       <> Shard.metrics_fingerprint b.Shard.r_metrics
  then failwith "scale: repeat at fixed seed diverged";
  note "Repeat at the same seed: bit-identical (result + runtime counters)."

(* ------------------------------------------------------------------ *)
(* Registry and the domain-parallel runner.                            *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig3", fig3);
    ("table2", table2);
    ("bounds", bounds);
    ("firefox", firefox);
    ("fig4", fig4);
    ("polybench", polybench);
    ("fig5", fig5);
    ("table1", table1);
    ("transitions", transitions);
    ("scaling", scaling);
    ("fig6", fig6);
    ("fig7", fig7);
    ("faults", faults);
    ("overload", overload);
    ("lifecycle", lifecycle);
    ("mte", mte);
    ("ablations", ablations);
    ("engine", engine_compare);
    ("fuzz", fuzz);
    ("scale", scale);
  ]

(* The CI tier: cheap experiments only, plus the engine cross-check and
   the differential fuzz gate. *)
let quick_ids =
  [ "table2"; "table1"; "scaling"; "lifecycle"; "overload"; "mte"; "engine"; "fuzz"; "scale" ]

(* Kernel modules are built lazily and shared between experiments;
   force them all before spawning domains (concurrent Lazy.force of the
   same suspension raises). *)
let preforce_kernels () =
  let force (k : Kernel.t) =
    ignore (Lazy.force k.Kernel.wasm);
    match k.Kernel.native with None -> () | Some l -> ignore (Lazy.force l)
  in
  List.iter (List.iter force)
    [
      Sfi_workloads.Spec2006.all;
      Sfi_workloads.Spec2017.all;
      Sfi_workloads.Sightglass.all;
      Sfi_workloads.Polybench.all;
      [ Sfi_workloads.Polybench.dhrystone ];
    ]

type outcome = {
  o_name : string;
  o_output : string;
  o_wall_s : float;
  o_instructions : int;  (** simulated instructions retired by this experiment *)
  o_failed : bool;
  o_metrics : (string * (metric_class * float)) list;  (** named scalars published via [metric] *)
}

let run_one (name, f) =
  let buf = Buffer.create 4096 in
  Domain.DLS.get out_key := Some buf;
  Domain.DLS.get metrics_key := [];
  Machine.reset_retired_instructions ();
  Runtime.reset_domain_metrics ();
  let failed, wall =
    timed (fun () ->
        try
          f ();
          false
        with e ->
          Buffer.add_string buf
            (Printf.sprintf "\nexperiment %s FAILED: %s\n" name (Printexc.to_string e));
          true)
  in
  let instructions = Machine.retired_instructions () in
  (* Every experiment that exercised a runtime engine gets the domain-local
     aggregate of the runtime counters attached to its "metrics" object —
     engines created and dropped inside the experiment included. The
     counters live in Domain.DLS, so this snapshot only sees work done on
     *this* domain: an experiment that spawns further domains (e.g.
     [scale]) must harvest inside each worker before it exits, as
     Shard.run does, and publish the merge through [metric]. *)
  let rt = Runtime.domain_metrics () in
  let rt_metrics =
    if
      rt.Runtime.m_transitions = 0
      && rt.Runtime.m_instantiations_cold = 0
      && rt.Runtime.m_instantiations_warm = 0
    then []
    else
      List.map
        (fun (k, _, get) -> ("rt_" ^ k, (Exact, float_of_int (get rt))))
        Runtime.counters
  in
  let metrics = List.rev !(Domain.DLS.get metrics_key) @ rt_metrics in
  Domain.DLS.get out_key := None;
  {
    o_name = name;
    o_output = Buffer.contents buf;
    o_wall_s = wall;
    o_instructions = instructions;
    o_failed = failed;
    o_metrics = metrics;
  }

(* Work-stealing over an atomic index: each domain claims the next
   unstarted experiment; results land in per-experiment slots, so the
   merge below is deterministic in registry order. *)
let run_parallel selected ~jobs =
  let exps = Array.of_list selected in
  let n = Array.length exps in
  let results : outcome option array = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (run_one exps.(i));
      worker ()
    end
  in
  let jobs = max 1 (min jobs n) in
  let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join helpers;
  Array.to_list (Array.map (function Some o -> o | None -> assert false) results)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Simulated instructions per host second over the experiments that
   execute any; the layout-only ones (table1, table2, scaling, mte) would
   otherwise drag the average toward zero. *)
let aggregate_ips outcomes =
  let instr, wall =
    List.fold_left
      (fun (i, w) o ->
        if o.o_instructions > 0 then (i + o.o_instructions, w +. o.o_wall_s) else (i, w))
      (0, 0.0) outcomes
  in
  if instr > 0 && wall > 0.0 then Some (float_of_int instr /. wall) else None

let write_json file outcomes ~jobs ~total_wall_s =
  let oc = open_out file in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"harness\": \"bench/main.exe\",\n";
  p "  \"engine\": \"compiled\",\n";
  p "  \"jobs\": %d,\n" jobs;
  p "  \"total_wall_s\": %.3f,\n" total_wall_s;
  p "  \"aggregate_instructions_per_sec\": %s,\n"
    (match aggregate_ips outcomes with Some v -> Printf.sprintf "%.0f" v | None -> "null");
  p "  \"experiments\": [\n";
  List.iteri
    (fun i o ->
      (* Experiments that execute no simulated instructions report null
         rather than a misleading 0 instructions/sec. *)
      let ips =
        if o.o_instructions > 0 && o.o_wall_s > 0.0 then
          Printf.sprintf "%.0f" (float_of_int o.o_instructions /. o.o_wall_s)
        else "null"
      in
      let metrics =
        match o.o_metrics with
        | [] -> ""
        | ms ->
            let fields =
              List.map
                (fun (k, (_, v)) -> Printf.sprintf "\"%s\": %.3f" (json_escape k) v)
                ms
            in
            Printf.sprintf ", \"metrics\": { %s }" (String.concat ", " fields)
      in
      p "    { \"name\": \"%s\", \"wall_s\": %.3f, \"instructions\": %d, \"instructions_per_sec\": %s, \"ok\": %b%s }%s\n"
        (json_escape o.o_name) o.o_wall_s o.o_instructions ips (not o.o_failed) metrics
        (if i = List.length outcomes - 1 then "" else ","))
    outcomes;
  p "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" file

(* --- perf-regression gate (--check-baseline) -------------------------- *)

(* Each baseline metric of an experiment this run covers is compared as
   its [metric] call classed it: [Exact] to the baseline's 3 printed
   decimals, [Host] not at all. *)
let check_baseline file outcomes =
  let module T = Sfi_trace.Trace in
  let failures = ref 0 in
  let complain msg =
    incr failures;
    Printf.eprintf "regress: %s\n" msg
  in
  let text =
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let j =
    try T.parse_json text
    with T.Bad_json m ->
      Printf.eprintf "regress: %s: bad JSON: %s\n" file m;
      exit 1
  in
  let obj = function T.J_obj kvs -> kvs | _ -> [] in
  let top = obj j in
  (* Aggregate throughput floor: half the recorded baseline. The baseline
     may cover more experiments than this run (full vs --quick), so the
     aggregate is only comparable to a generous floor, not a band. *)
  (match List.assoc_opt "aggregate_instructions_per_sec" top with
  | Some (T.J_num base_ips) ->
      let cur = Option.value (aggregate_ips outcomes) ~default:0.0 in
      if cur < 0.5 *. base_ips then
        complain
          (Printf.sprintf
             "aggregate_instructions_per_sec %.0f fell below half the baseline %.0f" cur
             base_ips)
  | _ -> ());
  let baseline_exps =
    match List.assoc_opt "experiments" top with
    | Some (T.J_arr es) -> List.map obj es
    | _ -> []
  in
  let checked = ref 0 and skipped = ref 0 in
  let baseline_metrics name =
    List.find_map
      (fun e ->
        match (List.assoc_opt "name" e, List.assoc_opt "metrics" e) with
        | Some (T.J_str n), Some (T.J_obj kvs) when n = name -> Some kvs
        | _ -> None)
      baseline_exps
    |> Option.value ~default:[]
  in
  (* Published by this run but absent from the baseline: reported so a
     new metric is seen, not gated until the baseline is regenerated. *)
  let unbaselined =
    List.concat_map
      (fun o ->
        let bmetrics = baseline_metrics o.o_name in
        List.filter_map
          (fun (k, _) ->
            if List.mem_assoc k bmetrics then None else Some (o.o_name ^ "." ^ k))
          o.o_metrics)
      outcomes
  in
  List.iter
    (fun e ->
      let name =
        match List.assoc_opt "name" e with Some (T.J_str s) -> s | _ -> ""
      in
      (* Experiments absent from this run (baseline is the full suite, the
         gate usually runs the --quick subset) are out of scope. *)
      match List.find_opt (fun o -> o.o_name = name) outcomes with
      | None -> ()
      | Some o ->
          let bmetrics =
            match List.assoc_opt "metrics" e with Some (T.J_obj kvs) -> kvs | _ -> []
          in
          List.iter
            (fun (k, bj) ->
              match bj with
              | T.J_num bv -> (
                  match List.assoc_opt k o.o_metrics with
                  | None ->
                      complain
                        (Printf.sprintf
                           "%s: metric %s present in baseline but missing from this run"
                           name k)
                  | Some (Host, _) -> incr skipped
                  | Some (Exact, cv) ->
                      incr checked;
                      (* The baseline JSON rounds to 3 decimals. *)
                      if Float.abs (cv -. bv) > 0.0005 then
                        complain
                          (Printf.sprintf
                             "%s: %s = %.3f, baseline %.3f (deterministic metric must \
                              match exactly)"
                             name k cv bv))
              | _ -> ())
            bmetrics)
    baseline_exps;
  Printf.printf
    "regress: %d metric(s) checked against %s (%d host metrics skipped), %d \
     violation(s); %d published metric(s) not in the baseline, not gated%s\n%!"
    !checked file !skipped !failures (List.length unbaselined)
    (if unbaselined = [] then "" else ": " ^ String.concat " " unbaselined);
  !failures = 0

let summarize outcomes ~total_wall_s =
  let t = Table.create ~headers:[ "experiment"; "wall s"; "sim Minstr"; "Minstr/s" ] in
  List.iter
    (fun o ->
      let mi = float_of_int o.o_instructions /. 1e6 in
      Table.add_row t
        [
          o.o_name;
          Printf.sprintf "%.2f" o.o_wall_s;
          Printf.sprintf "%.1f" mi;
          (if o.o_instructions > 0 && o.o_wall_s > 0.0 then
             Printf.sprintf "%.1f" (mi /. o.o_wall_s)
           else "-");
        ])
    outcomes;
  Printf.printf "\n=== Harness summary ===\n\n%!";
  Table.print t;
  Printf.printf "Total wall clock: %.1f s across %d experiments.\n%!" total_wall_s
    (List.length outcomes)

let () =
  (* The interpreter allocates boxed Int64 temporaries at a high rate; a
     larger minor heap cuts the minor-GC frequency noticeably. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let args = List.tl (Array.to_list Sys.argv) in
  let json = ref None
  and baseline = ref None
  and quick = ref false
  and serial = ref false
  and jobs = ref (Domain.recommended_domain_count ())
  and names = ref [] in
  let usage () =
    prerr_endline
      "usage: main.exe [--list] [--quick] [--serial] [--jobs N] [--json FILE] \
       [--check-baseline FILE] [experiment ...]";
    exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--list" :: _ ->
        List.iter (fun (name, _) -> print_endline name) experiments;
        exit 0
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | "--check-baseline" :: file :: rest ->
        baseline := Some file;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--serial" :: rest ->
        serial := true;
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ -> usage ())
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | name :: rest ->
        names := name :: !names;
        parse rest
  in
  parse args;
  let ids =
    match (List.rev !names, !quick) with
    | [], false -> List.map fst experiments
    | [], true -> quick_ids
    | names, _ -> names
  in
  let selected =
    List.map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> (name, f)
        | None ->
            Printf.eprintf "unknown experiment %s (try --list)\n" name;
            exit 1)
      ids
  in
  let jobs = if !serial then 1 else !jobs in
  Printf.printf "Running %d experiment(s) on %d domain(s)...\n%!" (List.length selected) jobs;
  preforce_kernels ();
  let outcomes, total_wall_s = timed (fun () -> run_parallel selected ~jobs) in
  List.iter (fun o -> print_string o.o_output) outcomes;
  flush stdout;
  summarize outcomes ~total_wall_s;
  (match !json with Some file -> write_json file outcomes ~jobs ~total_wall_s | None -> ());
  let regress_ok =
    match !baseline with Some file -> check_baseline file outcomes | None -> true
  in
  if List.exists (fun o -> o.o_failed) outcomes || not regress_ok then exit 1
