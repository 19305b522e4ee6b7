(* One module through the whole pipeline, as kernels and cold_start run
   it: compile, load on a fresh engine (default execution engine),
   instantiate, invoke the "run" export once, release — each call inside
   its own span — and the machine statistics the engine ended with. *)

module Codegen = Sfi_core.Codegen
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine
module W = Sfi_wasm.Ast

let mask_result m raw =
  match (W.type_of_func m (W.func_index_of_export m "run")).W.results with
  | [ W.I32 ] -> Int64.logand raw 0xFFFFFFFFL
  | _ -> raw

let value_bits = function
  | W.V_i32 v -> Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
  | W.V_i64 v -> v

type t = {
  outcome : (int64, string) result;  (** the result, or the trap / fault name *)
  latency_us : float;  (** host time from compile start to the result *)
  counters : Machine.counters;
  dtlb : int;
  dcache : int;
  code_bytes : int;
  promotions : int;
  sb_retired : int;
}

let run spans ?(group = 0) ?fuel ~strategy m args =
  let span name f = Spans.with_span spans ~group name f in
  let t0 = Unix.gettimeofday () in
  let compiled =
    span "core.compile" (fun () -> Codegen.compile (Codegen.default_config ~strategy ()) m)
  in
  let engine = span "runtime.create_engine" (fun () -> Runtime.create_engine compiled) in
  let inst = span "runtime.instantiate" (fun () -> Runtime.instantiate engine) in
  let outcome =
    span "runtime.invoke" (fun () ->
        match Runtime.invoke ?fuel inst "run" args with
        | Ok raw -> Ok (mask_result m raw)
        | Error t -> Error (Sfi_x86.Ast.trap_name t)
        | exception Runtime.Fault f -> Error ("fault " ^ Runtime.fault_name f))
  in
  let latency_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  span "runtime.release" (fun () -> if Runtime.live inst then Runtime.release inst);
  let mach = Runtime.machine engine in
  {
    outcome;
    latency_us;
    counters = Machine.counters mach;
    dtlb = Machine.dtlb_misses mach;
    dcache = Machine.dcache_misses mach;
    code_bytes = compiled.Codegen.code_bytes;
    promotions = (Machine.tier_stats mach).Machine.promotions;
    sb_retired = Machine.superblock_retired mach;
  }

let outcome_string = function Ok v -> Int64.to_string v | Error e -> "trap " ^ e

(* Digest of the simulated statistics of runs, in list order. *)
let fingerprint runs =
  List.fold_left
    (fun h r ->
      let c = r.counters in
      let h = match r.outcome with Ok v -> Pct.fnv_int64 h v | Error e -> Pct.fnv_string h e in
      List.fold_left Pct.fnv_int h
        [ c.Machine.cycles; c.Machine.instructions; r.dtlb; r.dcache; r.code_bytes ])
    Pct.fnv_offset runs

(* The per-layer counts of a pass of runs (per engine, or per simulated
   instruction), plus the "instructions" ratio base. *)
let counts runs =
  let sum f = List.fold_left (fun acc r -> acc +. float_of_int (f r)) 0.0 runs in
  let instr = sum (fun r -> r.counters.Machine.instructions) in
  let engines = float_of_int (List.length runs) in
  let per_kinstr x = x /. (instr /. 1000.0) in
  [
    ("instructions", instr);
    ("core.code_bytes", sum (fun r -> r.code_bytes) /. engines);
    ("machine.promotions_per_engine", sum (fun r -> r.promotions) /. engines);
    ("machine.sb_share", sum (fun r -> r.sb_retired) /. instr);
    ("machine.cpi", sum (fun r -> r.counters.Machine.cycles) /. instr);
    ("vmem.dtlb_miss_per_kinstr", per_kinstr (sum (fun r -> r.dtlb)));
    ("vmem.dcache_miss_per_kinstr", per_kinstr (sum (fun r -> r.dcache)));
  ]
