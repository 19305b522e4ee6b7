(* Shared helpers: run a module both in the reference interpreter and
   compiled under each SFI strategy, and compare results. *)

module W = Sfi_wasm.Ast
module B = Sfi_wasm.Builder
module Interp = Sfi_wasm.Interp
module X = Sfi_x86.Ast
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Runtime = Sfi_runtime.Runtime

let all_strategies =
  [
    Strategy.native;
    Strategy.wasm_default;
    Strategy.segue;
    Strategy.segue_loads_only;
    Strategy.wasm_bounds_checked;
    Strategy.segue_bounds_checked;
    { Strategy.addressing = Strategy.Reserved_base; bounds = Strategy.Mask };
  ]

let value_bits = function
  | W.V_i32 v -> Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
  | W.V_i64 v -> v

type outcome = Value of int64 | Trap of string

let run_interp m export args =
  let inst = Interp.instantiate m in
  match Interp.invoke inst export args with
  | Ok [] -> (Value 0L, inst)
  | Ok (v :: _) -> (Value (value_bits v), inst)
  | Error t -> (Trap (Interp.trap_name t), inst)

let compile_and_instantiate ?(vectorize = false) ~strategy m =
  let cfg = { (Codegen.default_config ~strategy ()) with Codegen.vectorize } in
  let compiled = Codegen.compile cfg m in
  let engine = Runtime.create_engine compiled in
  let inst = Runtime.instantiate engine in
  (engine, inst)

let run_compiled ?vectorize ~strategy m export args =
  let _engine, inst = compile_and_instantiate ?vectorize ~strategy m in
  (inst, Runtime.invoke inst export (List.map value_bits args))

(* Mask the compiled (raw RAX) result to the export's result width; void
   functions leave garbage in RAX, which must not be compared. *)
let mask_result m export bits =
  let idx = W.func_index_of_export m export in
  match (W.type_of_func m idx).W.results with
  | [ W.I32 ] -> Int64.logand bits 0xFFFFFFFFL
  | [] -> 0L
  | _ -> bits

(* Compare interpreter and compiled outcomes for one export invocation
   under every strategy, including final linear-memory contents. *)
let check_differential ?vectorize ?(check_memory = true) name m export args =
  let interp_outcome, interp_inst = run_interp m export args in
  List.iter
    (fun strategy ->
      let sname = Strategy.name strategy in
      let inst, result = run_compiled ?vectorize ~strategy m export args in
      (match (interp_outcome, result) with
      | Value expected, Ok raw ->
          let got = mask_result m export raw in
          Alcotest.(check int64)
            (Printf.sprintf "%s/%s result" name sname)
            expected got
      | Trap tname, Error k ->
          if strategy <> Strategy.native then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s trap kind (%s vs %s)" name sname tname (X.trap_name k))
              true
              (tname = X.trap_name k
              || (tname = "undefined table element" && k = X.Trap_out_of_bounds))
      | Value v, Error k ->
          Alcotest.failf "%s/%s: interpreter returned %Ld but compiled trapped: %s" name sname v
            (X.trap_name k)
      | Trap tname, Ok raw ->
          if strategy <> Strategy.native then
            Alcotest.failf "%s/%s: interpreter trapped (%s) but compiled returned %Ld" name
              sname tname raw);
      if check_memory && interp_outcome <> Trap "out of bounds memory access" then begin
        let len = min (Interp.memory_size_bytes interp_inst) (64 * 1024) in
        if len > 0 && (match (interp_outcome, result) with Value _, Ok _ -> true | _ -> false)
        then begin
          let expected = Interp.read_memory interp_inst ~addr:0 ~len in
          let got = Runtime.read_memory inst ~addr:0 ~len in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s memory contents" name sname)
            true (String.equal expected got)
        end
      end)
    all_strategies

let vi32 v = W.V_i32 (Int32.of_int v)
let vi64 v = W.V_i64 (Int64.of_int v)

let case name f = Alcotest.test_case name `Quick f

(* Fails if [f] runs more minor collections than its allocation explains:
   one per filled minor heap, one for the partly filled last heap, and one
   per major cycle it completes (OCaml 5 empties the minor heap to end a
   cycle). What it catches is the collection OCaml 5's [caml_make_vect]
   forces whenever [Array.make]/[init]/[map]/[of_list] builds an array of
   more than 256 words from a young boxed element. *)
let check_no_forced_minor_gcs what f =
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  f ();
  let s1 = Gc.quick_stat () and words = Gc.minor_words () -. w0 in
  let collections = s1.Gc.minor_collections - s0.Gc.minor_collections in
  let majors = s1.Gc.major_collections - s0.Gc.major_collections in
  let heap = float_of_int (Gc.get ()).Gc.minor_heap_size in
  let bound = 1 + int_of_float (words /. heap) + majors in
  if collections > bound then
    Alcotest.failf "%s: %d minor collections for %.0f minor words and %d major cycles (bound %d)"
      what collections words majors bound
