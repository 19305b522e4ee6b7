module W = Sfi_wasm.Ast
module Machine = Sfi_machine.Machine
module Codegen = Sfi_core.Codegen
module Strategy = Sfi_core.Strategy
module Runtime = Sfi_runtime.Runtime

type t = {
  name : string;
  suite : string;
  description : string;
  wasm : W.module_ Lazy.t;
  native : W.module_ Lazy.t option;
  entry : string;
  args : int64 list;
  checksum : int64 option;
}

let make ~name ~suite ?(description = "") ?native ?checksum ~entry ~args wasm =
  { name; suite; description; wasm; native; entry; args; checksum }

type measurement = {
  result : int64;
  cycles : int;
  instructions : int;
  code_bytes : int;
  fetched_bytes : int;
  dcache_misses : int;
  dtlb_misses : int;
  ns : float;
  tier : Machine.tier_stats;
}

let module_for k (strategy : Strategy.t) =
  match (strategy.Strategy.addressing, k.native) with
  | Strategy.Direct, Some native -> Lazy.force native
  | _ -> Lazy.force k.wasm

let compile ?(vectorize = false) ~strategy k =
  let cfg = { (Codegen.default_config ~strategy ()) with Codegen.vectorize } in
  Codegen.compile cfg (module_for k strategy)

let run ?cost ?vectorize ?engine ?trace ~strategy k =
  let compiled = compile ?vectorize ~strategy k in
  let engine = Runtime.create_engine ?cost ?engine compiled in
  (match trace with Some sink -> Runtime.set_trace engine sink | None -> ());
  let inst = Runtime.instantiate engine in
  Runtime.reset_metrics engine;
  match Runtime.invoke inst k.entry k.args with
  | Error trap ->
      failwith
        (Printf.sprintf "%s/%s (%s): trapped: %s" k.suite k.name (Strategy.name strategy)
           (Sfi_x86.Ast.trap_name trap))
  | Ok raw ->
      let m = module_for k strategy in
      let result =
        match (W.type_of_func m (W.func_index_of_export m k.entry)).W.results with
        | [ W.I32 ] -> Int64.logand raw 0xFFFFFFFFL
        | _ -> raw
      in
      (match k.checksum with
      | Some expected when not (Int64.equal expected result) ->
          failwith
            (Printf.sprintf "%s/%s (%s): checksum mismatch: expected %Ld, got %Ld" k.suite
               k.name (Strategy.name strategy) expected result)
      | Some _ | None -> ());
      let mach = Runtime.machine engine in
      let c = Machine.counters mach in
      {
        result;
        cycles = c.Machine.cycles;
        instructions = c.Machine.instructions;
        code_bytes = compiled.Codegen.code_bytes;
        fetched_bytes = c.Machine.code_bytes;
        dcache_misses = Machine.dcache_misses mach;
        dtlb_misses = Machine.dtlb_misses mach;
        ns = Machine.elapsed_ns mach;
        tier = Machine.tier_stats mach;
      }

let normalized ?cost ?vectorize strategy k =
  let native = run ?cost ?vectorize ~strategy:Strategy.native k in
  let measured = run ?cost ?vectorize ~strategy k in
  float_of_int measured.cycles /. float_of_int native.cycles

let code_size ~strategy k = (compile ~strategy k).Codegen.code_bytes

(* The Prometheus gauge set of one kernel run: machine counters of the
   measurement plus the domain-runtime aggregate. Lives here (not in the
   CLI) so the exposition-format lint can cover every gauge `sfi run
   --metrics-out` produces without shelling out. *)
let prometheus_gauges m (dm : Runtime.metrics) =
  let f = float_of_int in
  [
    ("sfi_instructions_total", "simulated instructions retired", f m.instructions);
    ("sfi_cycles_total", "simulated machine cycles", f m.cycles);
    ("sfi_ns_total", "simulated nanoseconds at the modeled clock", m.ns);
    ("sfi_code_bytes_static", "static compiled code size", f m.code_bytes);
    ("sfi_code_bytes_fetched", "dynamic code bytes through the frontend", f m.fetched_bytes);
    ("sfi_dtlb_misses_total", "simulated dTLB misses", f m.dtlb_misses);
    ("sfi_dcache_misses_total", "simulated dcache misses", f m.dcache_misses);
    ( "sfi_tier_blocks_total",
      "basic blocks discovered at translation",
      f m.tier.Machine.blocks_total );
    ( "sfi_tier_blocks_promoted",
      "blocks compiled to run batched ranges",
      f m.tier.Machine.blocks_promoted );
    ("sfi_tier_promotions_total", "lifetime superblock promotions", f m.tier.Machine.promotions);
    ( "sfi_tier_superblock_instructions_total",
      "instructions retired by batched ranges",
      f m.tier.Machine.superblock_instructions );
  ]
  @ List.map
      (fun (name, help, get) -> ("sfi_" ^ name ^ "_total", help, f (get dm)))
      Runtime.counters
