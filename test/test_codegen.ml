(* Differential tests: every module is executed by the reference
   interpreter and by the machine under all seven compilation strategies;
   results, traps and final memory must agree. This is the correctness
   backbone for the Segue lowering. *)

open Harness
module W = Sfi_wasm.Ast
open Sfi_wasm.Builder

(* --- simple arithmetic --- *)

let arith_module () =
  let b = create () in
  let add2 = declare b "add2" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b add2 [ get 0; get 1; add ];
  let mixed = declare b "mixed" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b mixed
    [ get 0; get 1; mul; get 0; i32 7; band; sub; get 1; i32 3; shl; bxor; i32 11; bor ];
  let divs = declare b "divs" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b divs [ get 0; get 1; div_s ];
  let divu = declare b "divu" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b divu [ get 0; get 1; div_u ];
  let rems = declare b "rems" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b rems [ get 0; get 1; rem_s ];
  let remu = declare b "remu" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b remu [ get 0; get 1; rem_u ];
  let shifts = declare b "shifts" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b shifts [ get 0; get 1; shr_u; get 0; get 1; shr_s; add; get 0; get 1; rotl; bxor ];
  let cmp = declare b "cmp" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b cmp
    [
      get 0; get 1; lt_s;
      get 0; get 1; lt_u; add;
      get 0; get 1; ge_s; add;
      get 0; get 1; eq; add;
      get 0; eqz; add;
    ];
  let bits = declare b "bits" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b bits [ get 0; W.Clz W.I32; get 0; W.Ctz W.I32; add; get 0; W.Popcnt W.I32; add ];
  build b

let test_arith () =
  let m = arith_module () in
  let pairs = [ (0, 1); (5, 3); (-7, 2); (1000000, 999); (min_int land 0xFFFFFFFF, -1) ] in
  List.iter
    (fun (a, bv) ->
      List.iter
        (fun f -> check_differential (f ^ "_arith") m f [ vi32 a; vi32 bv ])
        [ "add2"; "mixed"; "shifts"; "cmp" ])
    pairs;
  List.iter
    (fun (a, bv) ->
      List.iter
        (fun f -> check_differential (f ^ "_div") m f [ vi32 a; vi32 bv ])
        [ "divs"; "divu"; "rems"; "remu" ])
    [ (17, 5); (-17, 5); (17, -5); (0, 3); (7, 0); (0x80000000, -1) ];
  List.iter (fun v -> check_differential "bits" m "bits" [ vi32 v ]) [ 0; 1; 0x80000000; 12345 ]

(* --- i64 arithmetic and conversions --- *)

let i64_module () =
  let b = create () in
  let f = declare b "mix64" ~params:[ W.I64; W.I64 ] ~results:[ W.I64 ] () in
  define b f
    [
      get 0; get 1; add64;
      get 0; get 1; mul64; bxor64;
      get 0; i64 13; band64; sub64;
      get 1; i64 5; shl64; bor64;
    ];
  let conv = declare b "conv" ~params:[ W.I64 ] ~results:[ W.I32 ] () in
  define b conv [ get 0; wrap; get 0; i64 32; shr_u64; wrap; add ];
  let ext = declare b "ext" ~params:[ W.I32 ] ~results:[ W.I64 ] () in
  define b ext [ get 0; extend_u; get 0; extend_s; add64 ];
  let cmp64 = declare b "cmp64" ~params:[ W.I64; W.I64 ] ~results:[ W.I32 ] () in
  define b cmp64 [ get 0; get 1; lt_s64; get 0; get 1; lt_u64; add; get 0; eqz64; add ];
  build b

let test_i64 () =
  let m = i64_module () in
  List.iter
    (fun (a, bv) ->
      check_differential "mix64" m "mix64" [ W.V_i64 a; W.V_i64 bv ];
      check_differential "cmp64" m "cmp64" [ W.V_i64 a; W.V_i64 bv ])
    [ (0L, 1L); (Int64.min_int, -1L); (0x1234_5678_9ABC_DEF0L, 42L) ];
  List.iter
    (fun v -> check_differential "conv" m "conv" [ W.V_i64 v ])
    [ 0L; -1L; 0xFFFF_FFFF_0000_0001L ];
  List.iter (fun v -> check_differential "ext" m "ext" [ vi32 v ]) [ 0; -1; 0x7FFFFFFF ]

(* --- control flow --- *)

let control_module () =
  let b = create () in
  let fib = declare b "fib" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b fib
    [
      get 0; i32 2; lt_u;
      if_ ~ty:W.I32
        [ get 0 ]
        [ get 0; i32 1; sub; call fib; get 0; i32 2; sub; call fib; add ];
    ];
  let collatz = declare b "collatz" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  (* count steps to 1 *)
  let steps = 1 in
  define b collatz ~locals:[ W.I32 ]
    (while_loop
       [ get 0; i32 1; gt_u ]
       [
         get 0; i32 1; band;
         if_ [ get 0; i32 3; mul; i32 1; add; set 0 ] [ get 0; i32 2; div_u; set 0 ];
         get steps; i32 1; add; set steps;
       ]
    @ [ get steps ]);
  let sel = declare b "sel" ~params:[ W.I32; W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b sel [ get 0; get 1; get 2; select ];
  let table_sw = declare b "switchy" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b table_sw ~locals:[ W.I32 ]
    [
      block
        [
          block
            [
              block
                [
                  block [ get 0; W.Br_table ([ 0; 1 ], 2) ];
                  (* case 0 *) i32 10; set 1; br 2;
                ];
              (* case 1 *) i32 20; set 1; br 1;
            ];
          (* default *) i32 99; set 1;
        ];
      get 1;
    ];
  let nested = declare b "nested" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b nested ~locals:[ W.I32; W.I32; W.I32 ]
    (for_loop ~i:1 ~start:[ i32 0 ] ~stop:[ get 0 ]
       (for_loop ~i:2 ~start:[ i32 0 ] ~stop:[ get 0 ]
          [ get 3; get 1; get 2; mul; add; get 2; add; set 3 ])
    @ [ get 3 ]);
  ignore nested;
  build b

let test_control () =
  let m = control_module () in
  List.iter (fun n -> check_differential "fib" m "fib" [ vi32 n ]) [ 0; 1; 2; 7; 12 ];
  List.iter (fun n -> check_differential "collatz" m "collatz" [ vi32 n ]) [ 1; 6; 27 ];
  List.iter
    (fun (c, a, bv) -> check_differential "sel" m "sel" [ vi32 c; vi32 a; vi32 bv ])
    [ (5, 6, 1); (5, 6, 0) ];
  List.iter (fun n -> check_differential "switchy" m "switchy" [ vi32 n ]) [ 0; 1; 2; 7 ];
  List.iter (fun n -> check_differential "nested" m "nested" [ vi32 n ]) [ 0; 3; 5 ]

(* --- memory: Figure 1 patterns, loads/stores, bounds --- *)

let memory_module () =
  let b = create ~memory_pages:2 ~max_memory_pages:8 () in
  (* Figure 1 pattern 2: obj->arr[idx] with a struct offset. *)
  let pat2 = declare b "pat2" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b pat2 [ get 0; get 1; i32 2; shl; add; load32 ~offset:8 () ];
  (* Figure 1 pattern 1: i64 to "pointer", then deref. *)
  let pat1 = declare b "pat1" ~params:[ W.I64 ] ~results:[ W.I64 ] () in
  define b pat1 [ get 0; wrap; load64 () ];
  let fill = declare b "fill" ~params:[ W.I32; W.I32 ] ~results:[] () in
  define b fill ~locals:[ W.I32 ]
    (for_loop ~i:2 ~start:[ i32 0 ] ~stop:[ get 1 ]
       [ get 0; get 2; i32 2; shl; add; get 2; get 2; mul; store32 () ]);
  let sum = declare b "sum" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b sum ~locals:[ W.I32; W.I32 ]
    (for_loop ~i:2 ~start:[ i32 0 ] ~stop:[ get 1 ]
       [ get 3; get 0; get 2; i32 2; shl; add; load32 (); add; set 3 ]
    @ [ get 3 ]);
  let bytes = declare b "bytes" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b bytes
    [
      get 0; i32 0x7F; store8 ();
      get 0; i32 0xBEEF; store16 ~offset:2 ();
      get 0; load8_u ();
      get 0; load8_s (); add;
      get 0; load16_u ~offset:2 (); add;
    ];
  let oob = declare b "oob" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b oob [ get 0; load32 () ];
  let grow = declare b "grow" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b grow [ get 0; memory_grow; memory_size; add ];
  let big_offset = declare b "bigoff" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b big_offset [ get 0; load32 ~offset:65536 () ];
  ignore (pat1, pat2, fill, sum, bytes, oob, grow, big_offset);
  build b

let test_memory () =
  let m = memory_module () in
  check_differential "fill" m "fill" [ vi32 64; vi32 100 ];
  check_differential "sum_empty" m "sum" [ vi32 0; vi32 0 ];
  check_differential "pat2" m "pat2" [ vi32 64; vi32 5 ];
  check_differential "pat1" m "pat1" [ W.V_i64 0x100000010L ];
  check_differential "bytes" m "bytes" [ vi32 4096 ];
  check_differential "oob_in" m "oob" [ vi32 0 ];
  check_differential "oob_out" m "oob" [ vi32 (2 * 65536) ];
  check_differential "oob_way_out" m "oob" [ vi32 0x7FFFFFFF ];
  check_differential "bigoff_trap" m "bigoff" [ vi32 (2 * 65536) ];
  check_differential "grow" m "grow" [ vi32 2 ];
  check_differential "grow_too_much" m "grow" [ vi32 100 ]

(* --- bulk memory --- *)

let bulk_module () =
  let b = create ~memory_pages:2 () in
  data b ~offset:0 (String.init 512 (fun i -> Char.chr ((i * 37 + 11) land 0xFF)));
  let seed = declare b "seed" ~params:[ W.I32 ] ~results:[] () in
  define b seed ~locals:[ W.I32 ]
    (for_loop ~i:1 ~start:[ i32 0 ] ~stop:[ get 0 ]
       [ get 1; get 1; i32 31; mul; i32 17; add; store8 () ]);
  let copy = declare b "copy" ~params:[ W.I32; W.I32; W.I32 ] ~results:[] () in
  define b copy [ get 0; get 1; get 2; memory_copy ];
  let fill = declare b "fill" ~params:[ W.I32; W.I32; W.I32 ] ~results:[] () in
  define b fill [ get 0; get 1; get 2; memory_fill ];
  build b

let test_bulk () =
  let m = bulk_module () in
  check_differential "seed" m "seed" [ vi32 1000 ];
  (* run seed then copy within one instance: use separate exports invoked
     in sequence via a driver module instead; here just test each op from
     zeroed memory plus the seeded prefix from data segments. *)
  check_differential "copy_fwd" m "copy" [ vi32 100; vi32 0; vi32 50 ];
  check_differential "copy_bwd" m "copy" [ vi32 0; vi32 10; vi32 50 ];
  check_differential "copy_overlap" m "copy" [ vi32 5; vi32 0; vi32 64 ];
  check_differential "fill" m "fill" [ vi32 3; vi32 0xAB; vi32 333 ]

(* --- calls, call_indirect, globals, imports --- *)

let call_module () =
  let b = create ~memory_pages:1 () in
  let g = global b W.I32 (W.V_i32 7l) in
  let gsum = global b W.I64 (W.V_i64 0L) in
  let double = declare b "double" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b double [ get 0; i32 2; mul ];
  let triple = declare b "triple" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b triple [ get 0; i32 3; mul ];
  let noise = declare b "noise" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b noise [ get 0; get 1; bxor ];
  elem b [ double; triple ];
  ignore noise;
  let dispatch = declare b "dispatch" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b dispatch [ get 1; get 0; call_indirect b ~params:[ W.I32 ] ~results:[ W.I32 ] ];
  let use_globals = declare b "use_globals" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b use_globals
    [
      gget g; get 0; add; gset g;
      gget gsum; get 0; extend_u; add64; gset gsum;
      gget g; gget gsum; wrap; add;
    ];
  let deep = declare b "deep" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  (* deep expression stack to exercise spills *)
  define b deep
    [
      get 0; get 0; i32 1; add; get 0; i32 2; add; get 0; i32 3; add;
      get 0; i32 4; add; get 0; i32 5; add; get 0; i32 6; add;
      get 0; i32 7; add; get 0; i32 8; add; get 0; i32 9; add;
      add; add; add; add; add; add; add; add; add;
    ];
  let many_args = declare b "many" ~params:[ W.I32; W.I32; W.I32; W.I32; W.I32 ] ~results:[ W.I32 ] ()
  in
  define b many_args
    [ get 0; get 1; add; get 2; add; get 3; add; get 4; add ];
  let call_many = declare b "call_many" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b call_many
    [ get 0; get 0; i32 1; add; get 0; i32 2; add; get 0; i32 3; add; get 0; i32 4; add;
      call many_args ];
  build b

let test_calls () =
  let m = call_module () in
  check_differential "dispatch0" m "dispatch" [ vi32 0; vi32 21 ];
  check_differential "dispatch1" m "dispatch" [ vi32 1; vi32 21 ];
  check_differential "dispatch_oob" m "dispatch" [ vi32 9; vi32 21 ];
  check_differential "globals" m "use_globals" [ vi32 5 ];
  check_differential "deep" m "deep" [ vi32 3 ];
  check_differential "call_many" m "call_many" [ vi32 10 ]

(* signature mismatch for call_indirect *)
let test_indirect_sig () =
  let b = create ~memory_pages:1 () in
  let two = declare b "two" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b two [ get 0; get 1; add ];
  elem b [ two ];
  let bad = declare b "bad" ~params:[] ~results:[ W.I32 ] () in
  define b bad [ i32 1; i32 0; call_indirect b ~params:[ W.I32 ] ~results:[ W.I32 ] ];
  let m = build b in
  check_differential "bad_sig" m "bad" []

(* call_indirect with its index and an i64 argument below the register
   ring: both reach the machine through the scratch register, which also
   carries the signature check and the call target. *)
let test_indirect_deep () =
  let b = create ~memory_pages:1 () in
  let inc = declare b "inc" ~params:[ W.I64 ] ~results:[ W.I64 ] () in
  define b inc [ get 0; i64 1; add64 ];
  let dbl = declare b "dbl" ~params:[ W.I64 ] ~results:[ W.I64 ] () in
  define b dbl [ get 0; get 0; add64 ];
  elem b [ inc; dbl ];
  let run = declare b "run" ~params:[ W.I32 ] ~results:[ W.I64 ] () in
  define b run
    [
      i64 1; i64 2; i64 3; i64 4; i64 5; i64 6;
      i64' 0x1234_5678_9ABC_DEF0L; get 0;
      call_indirect b ~params:[ W.I64 ] ~results:[ W.I64 ];
      add64; add64; add64; add64; add64; add64;
    ];
  let m = build b in
  check_differential "deep_index0" m "run" [ vi32 0 ];
  check_differential "deep_index1" m "run" [ vi32 1 ];
  check_differential "deep_index_oob" m "run" [ vi32 2 ]

(* imports *)
let test_imports () =
  let b = create ~memory_pages:1 () in
  let log = import b "host_add" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] in
  let f = declare b "run" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b f [ get 0; i32 100; call log; get 0; add ];
  let m = build b in
  (* interpreter *)
  let host_add _ = function
    | [ W.V_i32 a; W.V_i32 b ] -> [ W.V_i32 (Int32.add a b) ]
    | _ -> assert false
  in
  let interp = Sfi_wasm.Interp.instantiate ~host:[ ("host_add", host_add) ] m in
  let expected =
    match Sfi_wasm.Interp.invoke interp "run" [ W.V_i32 5l ] with
    | Ok [ W.V_i32 v ] -> Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
    | _ -> assert false
  in
  List.iter
    (fun strategy ->
      let engine, inst = compile_and_instantiate ~strategy m in
      Sfi_runtime.Runtime.register_import engine "host_add" (fun _ args ->
          Int64.add args.(0) args.(1));
      match Sfi_runtime.Runtime.invoke inst "run" [ 5L ] with
      | Ok raw ->
          Alcotest.(check int64)
            (Printf.sprintf "import/%s" (Sfi_core.Strategy.name strategy))
            expected
            (Int64.logand raw 0xFFFFFFFFL)
      | Error k -> Alcotest.failf "import trapped: %s" (Sfi_x86.Ast.trap_name k))
    all_strategies

let test_unreachable () =
  let b = create () in
  let f = declare b "boom" ~params:[] ~results:[ W.I32 ] () in
  define b f [ i32 1; if_ ~ty:W.I32 [ unreachable ] [ i32 5 ] ];
  let m = build b in
  check_differential "unreachable" m "boom" []

(* The paper's future-work cost function: under Segment_loads_only, choose
   per access between the gs form and the reserved-base form by encoded
   size — never bigger, always semantics-preserving. *)
let test_segue_cost_function () =
  let m = memory_module () in
  let interp_result export args =
    let inst = Sfi_wasm.Interp.instantiate m in
    match Sfi_wasm.Interp.invoke inst export args with
    | Ok [ W.V_i32 v ] -> Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
    | _ -> Alcotest.fail "interp"
  in
  let compile hybrid =
    let cfg =
      {
        (Sfi_core.Codegen.default_config ~strategy:Sfi_core.Strategy.segue_loads_only ()) with
        Sfi_core.Codegen.segue_cost_function = hybrid;
      }
    in
    Sfi_core.Codegen.compile cfg m
  in
  let plain = compile false and hybrid = compile true in
  Alcotest.(check bool) "hybrid never bigger" true
    (hybrid.Sfi_core.Codegen.code_bytes <= plain.Sfi_core.Codegen.code_bytes);
  (* And still correct. *)
  let engine = Sfi_runtime.Runtime.create_engine hybrid in
  let inst = Sfi_runtime.Runtime.instantiate engine in
  List.iter
    (fun (export, args, raw_args) ->
      match Sfi_runtime.Runtime.invoke inst export raw_args with
      | Ok raw ->
          Alcotest.(check int64) (export ^ " result") (interp_result export args)
            (Int64.logand raw 0xFFFFFFFFL)
      | Error k -> Alcotest.failf "trap: %s" (Sfi_x86.Ast.trap_name k))
    [
      ("pat2", [ W.V_i32 64l; W.V_i32 5l ], [ 64L; 5L ]);
      ("bytes", [ W.V_i32 4096l ], [ 4096L ]);
      ("sum", [ W.V_i32 0l; W.V_i32 0l ], [ 0L; 0L ]);
    ]

(* The wasm2c-style stack-exhaustion check: unbounded recursion traps
   deterministically in every sandboxed strategy rather than smashing the
   host stack. *)
let test_stack_exhaustion () =
  let b = create () in
  let f = declare b "recurse" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b f [ get 0; i32 1; add; call f ];
  let m = build b in
  List.iter
    (fun strategy ->
      match run_compiled ~strategy m "recurse" [ vi32 0 ] with
      | _, Error Sfi_x86.Ast.Trap_unreachable -> ()
      | _, Error k ->
          Alcotest.failf "%s: wrong trap %s" (Sfi_core.Strategy.name strategy)
            (Sfi_x86.Ast.trap_name k)
      | _, Ok v ->
          Alcotest.failf "%s: recursion returned %Ld" (Sfi_core.Strategy.name strategy) v)
    (List.filter (fun s -> s <> Sfi_core.Strategy.native) all_strategies)

let tests =
  [
    case "arith" test_arith;
    case "i64" test_i64;
    case "control" test_control;
    case "memory" test_memory;
    case "bulk" test_bulk;
    case "calls" test_calls;
    case "indirect signature" test_indirect_sig;
    case "indirect call with a deep index and argument" test_indirect_deep;
    case "imports" test_imports;
    case "unreachable" test_unreachable;
    case "segue cost function (future work)" test_segue_cost_function;
    case "stack exhaustion" test_stack_exhaustion;
  ]
