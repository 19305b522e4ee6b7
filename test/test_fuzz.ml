(* Tests for the cross-layer differential fuzzer: a fixed-seed corpus
   through the full oracle (locking the six-strategy / two-engine / LFI
   lockstep property into `dune runtest`), the sanitizer self-test, the
   delta-debugging shrinker, and a regression module for the bulk-memory
   bounds bug the fuzzer found. *)

module W = Sfi_wasm.Ast
module B = Sfi_wasm.Builder
module Fuzz = Sfi_fuzz.Fuzz

(* Forty programs with per-program seeds 0x5EED+i: every one runs through
   the reference interpreter, all six SFI strategies on both the step and
   threaded engines (sanitizer armed), and — for the tame subset — the
   native / LFI / LFI+Segue triple. Any divergence fails the suite with
   the minimized reproducer. Programs that once diverged ride along by
   seed:
   - -3526136549200349681: a call_indirect whose table index sat below
     the register ring, in the scratch register, which the signature
     check then overwrote. *)
let regression_seeds = [ -3526136549200349681L ]

let test_corpus () =
  List.iter
    (fun seed ->
      match (Fuzz.check_program (Fuzz.generate seed)).Fuzz.failure with
      | None -> ()
      | Some (oracle, detail) -> Alcotest.failf "seed %Ld: %s: %s" seed oracle detail)
    regression_seeds;
  let report = Fuzz.run_corpus ~seed:0x5EEDL ~count:40 () in
  (match report.Fuzz.r_divergences with
  | [] -> ()
  | d :: _ -> Alcotest.failf "%s" (Format.asprintf "%a" Fuzz.pp_divergence d));
  Alcotest.(check int) "all programs checked" 40 report.Fuzz.r_programs;
  Alcotest.(check bool) "interp + 6 strategies x 2 engines + LFI triple" true
    (report.Fuzz.r_executions
    >= (13 * (report.Fuzz.r_programs - report.Fuzz.r_skipped))
       + (3 * report.Fuzz.r_lfi_programs));
  Alcotest.(check bool) "some programs exercised the LFI oracle" true
    (report.Fuzz.r_lfi_programs > 0)

let test_generate_deterministic () =
  let a = Fuzz.generate 12345L and b = Fuzz.generate 12345L in
  Alcotest.(check string) "equal seeds, equal programs"
    (Format.asprintf "%a" Fuzz.pp_module a.Fuzz.p_module)
    (Format.asprintf "%a" Fuzz.pp_module b.Fuzz.p_module);
  Alcotest.(check bool) "equal args" true (a.Fuzz.p_args = b.Fuzz.p_args)

let test_self_test () =
  match Fuzz.self_test () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sanitizer self-test: %s" e

(* Regression for the bug fuzzer seed 7053 caught (minimized to this
   shape): a zero-length bulk op at an out-of-bounds address performs no
   memory access, so the guard region never faults — the builtins must
   bounds-check [dst + len] (and [src + len]) explicitly, like the
   interpreter does. Also pins the boundary: [dst + len = memory size] is
   in bounds. *)
let test_bulk_zero_length_oob () =
  let build body =
    let b = B.create ~memory_pages:1 () in
    let run = B.declare b "run" ~params:[] ~results:[ W.I32 ] () in
    B.define b run (body @ [ B.i32 1 ]);
    B.build b
  in
  let check name body ~traps =
    let r = Fuzz.check_module ~lfi:false (build body) [] in
    (match r.Fuzz.failure with
    | None -> ()
    | Some (oracle, detail) -> Alcotest.failf "%s: %s: %s" name oracle detail);
    Alcotest.(check bool) (name ^ " trap") traps r.Fuzz.interp_trapped
  in
  check "fill oob dst" [ B.i32 65537; B.i32 0; B.i32 0; W.Memory_fill ] ~traps:true;
  check "copy oob dst" [ B.i32 65537; B.i32 0; B.i32 0; W.Memory_copy ] ~traps:true;
  check "copy oob src" [ B.i32 0; B.i32 65537; B.i32 0; W.Memory_copy ] ~traps:true;
  check "fill at exact bound" [ B.i32 65536; B.i32 0; B.i32 0; W.Memory_fill ] ~traps:false;
  check "copy at exact bound" [ B.i32 65536; B.i32 65536; B.i32 0; W.Memory_copy ]
    ~traps:false

let contains_fill m =
  let rec in_instr = function
    | W.Memory_fill -> true
    | W.Block (_, body) | W.Loop (_, body) -> List.exists in_instr body
    | W.If (_, then_, else_) -> List.exists in_instr then_ || List.exists in_instr else_
    | _ -> false
  in
  Array.exists (fun f -> List.exists in_instr f.W.body) m.W.funcs

(* The shrinker must strip the junk around the one interesting instruction
   while every candidate it keeps still validates and reproduces. *)
let test_minimize () =
  let b = B.create ~memory_pages:1 () in
  let run = B.declare b "run" ~params:[] ~results:[ W.I32 ] () in
  B.define b run ~locals:[ W.I32 ]
    ([ B.i32 1; B.i32 2; B.add; B.set 0; B.i32 9; B.i32 3; B.mul; B.set 0 ]
    @ [ B.i32 0; B.i32 0xAB; B.i32 16; W.Memory_fill ]
    @ [ B.get 0; B.i32 7; B.add; B.set 0; B.get 0 ]);
  let m = B.build b in
  let original = Fuzz.module_size m in
  let small = Fuzz.minimize ~reproduces:contains_fill m in
  Alcotest.(check bool) "still reproduces" true (contains_fill small);
  Alcotest.(check bool) "shrank" true (Fuzz.module_size small < original);
  (* minimal valid shape: three operands, the fill, and the result *)
  Alcotest.(check bool)
    (Printf.sprintf "near-minimal (%d instrs)" (Fuzz.module_size small))
    true
    (Fuzz.module_size small <= 8)

let tests =
  [
    Harness.case "generator is deterministic" test_generate_deterministic;
    Harness.case "fixed-seed corpus: all oracles agree" test_corpus;
    Harness.case "sanitizer self-test" test_self_test;
    Harness.case "bulk ops bounds-check zero-length ranges" test_bulk_zero_length_oob;
    Harness.case "shrinker strips junk around a reproducer" test_minimize;
  ]
