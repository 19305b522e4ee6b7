(* Fault-injection containment harness.

   The paper's isolation argument (Table 1, the ColorGuard invariants) is a
   claim about what a *hostile* sandbox cannot do. This module tests that
   claim from the attacker's side: it takes a small attack module, compiles
   it under each SFI strategy, then synthesizes escape attempts by mutating
   the compiled program the way a miscompilation or an in-sandbox code bug
   would — rewriting memory operands out of the slot, deleting guard
   instructions, corrupting the trusted entry sequence — and executes each
   mutant against a striped pool holding a victim instance with a canary.

   Every attempt must end [Contained] (a trap) or [Diverged] (ran to
   uselessness); an [Escaped] — the mutant read or wrote the victim's
   canary — is a containment failure and a test failure. [self_test]
   deliberately weakens the isolation to prove the harness can actually
   observe an escape when one exists. *)

module X = Sfi_x86.Ast
module W = Sfi_wasm.Ast
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Pool = Sfi_core.Pool
module Runtime = Sfi_runtime.Runtime
module Space = Sfi_vmem.Space
module Prot = Sfi_vmem.Prot
module Units = Sfi_util.Units
open Sfi_wasm.Builder

type outcome =
  | Contained of X.trap_kind
  | Escaped of string
  | Diverged of string

type attempt = {
  a_class : string;
  a_desc : string;
  a_entry : string;
  outcome : outcome;
}

type report = { strategy_name : string; attempts : attempt list }
type tally = { contained : int; escaped : int; diverged : int }

(* The five strategies under attack. All run with ColorGuard striping in
   the harness pool, so guard-region strategies are defended by stripes
   where their guard distance is exceeded. *)
let strategies =
  [
    ("segue", Strategy.segue);
    ("segue-loads", Strategy.segue_loads_only);
    ("base-reg", Strategy.wasm_default);
    ("bounds-check", Strategy.wasm_bounds_checked);
    ("mask", { Strategy.addressing = Strategy.Reserved_base; bounds = Strategy.Mask });
  ]

(* --- the attack module -------------------------------------------------- *)

(* Four exports giving the mutator raw material: a load, a store, a loop of
   in-bounds accesses (operand-rewrite targets deep in a body), and
   unbounded recursion (stack-check target). *)
let attack_module () =
  let b = create ~memory_pages:2 ~max_memory_pages:2 () in
  let probe = declare b "probe" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b probe [ get 0; load32 () ];
  let poke = declare b "poke" ~params:[ W.I32; W.I32 ] ~results:[ W.I32 ] () in
  define b poke [ get 0; get 1; store32 (); i32 0 ];
  let churn = declare b "churn" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  let i = 1 and acc = 2 and a = 3 in
  define b churn ~locals:[ W.I32; W.I32; W.I32 ]
    ([ i32 0; set acc ]
    @ for_loop ~i ~start:[ i32 0 ] ~stop:[ i32 64 ]
        [
          get 0; get i; mul; i32 0x9E37; add; i32 0xFFFC; band; set a;
          get a; get acc; store32 ();
          get acc; get a; load32 (); add; set acc;
        ]
    @ [ get acc ]);
  let recurse = declare b "recurse" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b recurse [ get 0; i32 1; add; call recurse ];
  build b

(* --- harness geometry --------------------------------------------------- *)

(* Small striped pool: 4 slots x 4 MiB memory, 16 MiB guard budget, 15 keys
   available. Striping packs slots well inside the guard distance, so
   neighbour stripes are reachable by a 32-bit offset — exactly the regime
   where MPK colors, not address-space distance, are the isolation. *)
let pool_params =
  {
    Pool.num_slots = 4;
    max_memory_bytes = 4 * Units.mib;
    expected_slot_bytes = 4 * Units.mib;
    guard_bytes = 16 * Units.mib;
    pre_guard_enabled = false;
    num_pkeys_available = 15;
    stripe_enabled = true;
  }

let pool_layout () =
  match Pool.compute pool_params with
  | Ok l ->
      if l.Pool.num_stripes < 2 then failwith "inject: harness pool did not stripe";
      l
  | Error m -> failwith ("inject: harness pool layout: " ^ m)

let fuel = 1 lsl 22
let canary = 0xC0FFEE42
let canary_bytes = "\x42\xEE\xFF\xC0" (* little-endian 0xC0FFEE42 *)
let canary_addr = 64

let compile_strategy strat =
  let cfg = { (Codegen.default_config ~strategy:strat ()) with Codegen.colorguard = true } in
  Codegen.compile cfg (attack_module ())

(* --- attempt execution -------------------------------------------------- *)

let classify ~before ~after result =
  match result with
  | Error (Runtime.Trap k) -> Contained k
  | Error Runtime.Fuel_exhausted -> Diverged "fuel exhausted"
  | Error f -> Diverged (Runtime.fault_name f)
  | Ok v ->
      if after <> before then Escaped "neighbour canary overwritten"
      else if Int64.logand v 0xFFFFFFFFL = Int64.of_int canary then
        Escaped "read neighbour canary"
      else Diverged "completed without trapping"

(* Fresh engine per mutant: attacker in slot 0 (color 1), victim in slot 1
   (color 2) with a canary planted in its heap. *)
let run_attempt layout compiled ~entry ~args =
  let engine = Runtime.create_engine ~allocator:(Runtime.Pool layout) compiled in
  let attacker = Runtime.instantiate engine in
  let victim = Runtime.instantiate engine in
  Runtime.write_memory victim ~addr:canary_addr canary_bytes;
  let before = Runtime.read_memory victim ~addr:canary_addr ~len:4 in
  let result = Runtime.invoke_protected ~fuel attacker entry args in
  let after = Runtime.read_memory victim ~addr:canary_addr ~len:4 in
  classify ~before ~after result

(* --- program surgery ---------------------------------------------------- *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [entries, bodies) and [bodies, builtins): entry sequences come first,
   then function bodies ("f$" labels), then runtime builtins ("__"). *)
let regions (prog : X.program) =
  let n = Array.length prog in
  let first_body = ref n in
  let first_builtin = ref n in
  Array.iteri
    (fun i ins ->
      match ins with
      | X.Label l when starts_with "f$" l && !first_body = n -> first_body := i
      | X.Label l when starts_with "__" l && !first_builtin = n -> first_builtin := i
      | _ -> ())
    prog;
  (!first_body, !first_builtin)

(* Export whose body (or entry sequence) contains instruction [i]. *)
let enclosing_label prefix prog i =
  let rec scan j =
    if j < 0 then None
    else
      match prog.(j) with
      | X.Label l when starts_with prefix l ->
          Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
      | _ -> scan (j - 1)
  in
  scan i

let map_mem f (ins : X.instr) =
  let om = function X.Mem m -> X.Mem (f m) | o -> o in
  match ins with
  | X.Mov (w, d, s) -> X.Mov (w, om d, om s)
  | X.Movzx (dw, sw, r, s) -> X.Movzx (dw, sw, r, om s)
  | X.Movsx (dw, sw, r, s) -> X.Movsx (dw, sw, r, om s)
  | X.Alu (op, w, d, s) -> X.Alu (op, w, om d, om s)
  | X.Shift (op, w, d, c) -> X.Shift (op, w, om d, c)
  | X.Imul (w, r, s) -> X.Imul (w, r, om s)
  | X.Bitcnt (b, w, r, s) -> X.Bitcnt (b, w, r, om s)
  | X.Div (w, sg, s) -> X.Div (w, sg, om s)
  | X.Neg (w, o) -> X.Neg (w, om o)
  | X.Not (w, o) -> X.Not (w, om o)
  | X.Cmp (w, a, b) -> X.Cmp (w, om a, om b)
  | X.Test (w, a, b) -> X.Test (w, om a, om b)
  | X.Cmovcc (c, w, r, s) -> X.Cmovcc (c, w, r, om s)
  | X.Push o -> X.Push (om o)
  | X.Vload (v, m) -> X.Vload (v, f m)
  | X.Vstore (m, v) -> X.Vstore (f m, v)
  | _ -> ins

(* A memory operand that reaches linear memory under [strat] — %gs-relative
   (Segue), or based/indexed on the reserved heap-base register. %fs is the
   trusted vmctx, never a sandbox access. *)
let is_sandbox_mem strat (m : X.mem) =
  match m.X.seg with
  | Some X.GS -> true
  | Some X.FS -> false
  | None ->
      Strategy.reserves_base_register strat
      && (m.X.base = Some X.R14
         || match m.X.index with Some (X.R14, _) -> true | _ -> false)

let insert_at prog i ins =
  Array.concat [ Array.sub prog 0 i; [| ins |]; Array.sub prog i (Array.length prog - i) ]

let is_fs_mem disp (m : X.mem) = m.X.seg = Some X.FS && m.X.disp = disp

(* --- mutation classes --------------------------------------------------- *)

let benign_args = function
  | "poke" -> [ 16L; 7L ]
  | "churn" -> [ 3L ]
  | "recurse" -> [ 0L ]
  | _ -> [ 16L ]

(* Arguments that address the victim's canary directly: offset
   [delta + canary_addr] from the attacker's heap base lands on the
   neighbour slot's canary if nothing stops it. *)
let hostile_args delta = function
  | "poke" -> [ Int64.of_int (delta + canary_addr); 0x41414141L ]
  | "churn" -> [ 3L ]
  | "recurse" -> [ 0L ]
  | _ -> [ Int64.of_int (delta + canary_addr) ]

let run_strategy name strat =
  let compiled = compile_strategy strat in
  let layout = pool_layout () in
  let delta = layout.Pool.slot_bytes in
  let prog = compiled.Codegen.program in
  let first_body, first_builtin = regions prog in
  let attempts = ref [] in
  let add a_class a_desc a_entry mutated args =
    let mutant = { compiled with Codegen.program = mutated } in
    let outcome = run_attempt layout mutant ~entry:a_entry ~args in
    attempts := { a_class; a_desc; a_entry; outcome } :: !attempts
  in
  (* (a) operand rewrites: point a sandbox memory operand out of the slot —
     a large positive displacement (over the neighbour stripes, into
     unmapped slab) and a reach *below* the heap with the 32-bit
     address-size truncation removed. *)
  for i = first_body to first_builtin - 1 do
    match prog.(i) with
    | X.Label _ | X.Lea _ -> ()
    | ins when List.exists (is_sandbox_mem strat) (X.mem_operands ins) -> (
        match enclosing_label "f$" prog i with
        | None -> ()
        | Some entry ->
            let rewrite f =
              Array.mapi
                (fun j ins' ->
                  if j = i then
                    map_mem (fun m -> if is_sandbox_mem strat m then f m else m) ins'
                  else ins')
                prog
            in
            add "operand-rewrite"
              (Printf.sprintf "instr %d: disp += 2 GiB" i)
              entry
              (rewrite (fun m -> { m with X.disp = m.X.disp + 0x7FF0_0000 }))
              (benign_args entry);
            add "operand-rewrite"
              (Printf.sprintf "instr %d: addr32 off, disp -= 16 MiB" i)
              entry
              (rewrite (fun m ->
                   { m with X.addr32 = false; disp = m.X.disp - (16 * Units.mib) }))
              (benign_args entry))
    | _ -> ()
  done;
  (* (b) guard strips: delete the SFI check and drive the now-unchecked
     access at the victim's canary. *)
  for i = first_body to first_builtin - 1 do
    let strip_pair desc =
      match enclosing_label "f$" prog i with
      | None -> ()
      | Some entry ->
          let mutated = Array.copy prog in
          mutated.(i) <- X.Nop;
          mutated.(i + 1) <- X.Nop;
          add "guard-strip" (Printf.sprintf "instr %d: %s" i desc) entry mutated
            (hostile_args delta entry)
    in
    match (prog.(i), if i + 1 < first_builtin then Some prog.(i + 1) else None) with
    | X.Cmp (X.W64, _, X.Mem m), Some (X.Jcc (X.AE, "__trap_oob"))
      when is_fs_mem Codegen.vmctx_memory_bytes m ->
        strip_pair "bounds check deleted"
    | X.Cmp (X.W64, X.Reg X.RSP, X.Mem m), Some (X.Jcc (X.B, "__trap_stack"))
      when is_fs_mem Codegen.vmctx_stack_limit m ->
        strip_pair "stack check deleted"
    | X.Lea (X.W32, r, lm), Some (X.Alu (X.And, X.W32, X.Reg r', X.Imm 0xFFFFFFFFL))
      when r = r' -> (
        (* defeat masking: widen the truncating lea and delete the mask *)
        match enclosing_label "f$" prog i with
        | None -> ()
        | Some entry ->
            let mutated = Array.copy prog in
            mutated.(i) <- X.Lea (X.W64, r, lm);
            mutated.(i + 1) <- X.Nop;
            add "guard-strip"
              (Printf.sprintf "instr %d: mask widened and deleted" i)
              entry mutated (hostile_args delta entry))
    | _ -> ()
  done;
  (* (c) trusted-setup corruption: skew the segment/base-register load in
     the entry sequence by one slot stride (the attacker's view of linear
     memory becomes the victim's slot), and corrupt the PKRU image toward
     deny-everything (must fail closed). *)
  for i = 0 to first_body - 1 do
    match prog.(i) with
    | X.Wrgsbase r -> (
        match enclosing_label "entry$" prog i with
        | None -> ()
        | Some entry ->
            add "setup-corrupt"
              (Printf.sprintf "instr %d: gs base skewed one slot" i)
              entry
              (insert_at prog i (X.Alu (X.Add, X.W64, X.Reg r, X.Imm (Int64.of_int delta))))
              (hostile_args 0 entry))
    | X.Mov (X.W64, X.Reg X.R14, X.Mem m) when is_fs_mem Codegen.vmctx_heap_base m -> (
        match enclosing_label "entry$" prog i with
        | None -> ()
        | Some entry ->
            add "setup-corrupt"
              (Printf.sprintf "instr %d: base register skewed one slot" i)
              entry
              (insert_at prog (i + 1)
                 (X.Alu (X.Add, X.W64, X.Reg X.R14, X.Imm (Int64.of_int delta))))
              (hostile_args 0 entry))
    | X.Wrpkru -> (
        match enclosing_label "entry$" prog i with
        | None -> ()
        | Some entry ->
            add "setup-corrupt"
              (Printf.sprintf "instr %d: pkru image corrupted (deny all)" i)
              entry
              (insert_at prog i (X.Alu (X.Or, X.W32, X.Reg X.RAX, X.Imm 0xFFFFFFFCL)))
              (benign_args entry))
    | _ -> ()
  done;
  (* (d) neighbour probes: the unmutated program driven straight at the
     victim's stripe and far out of the slab. *)
  add "neighbour-probe"
    (Printf.sprintf "probe victim canary at +%d" (delta + canary_addr))
    "probe" prog
    [ Int64.of_int (delta + canary_addr) ];
  add "neighbour-probe"
    (Printf.sprintf "poke victim canary at +%d" (delta + canary_addr))
    "poke" prog
    [ Int64.of_int (delta + canary_addr); 0xDEADL ];
  add "neighbour-probe" "probe 2 GiB past the slab" "probe" prog [ 0x7FF0_0000L ];
  { strategy_name = name; attempts = List.rev !attempts }

(* --- reporting ---------------------------------------------------------- *)

let tally r =
  List.fold_left
    (fun t a ->
      match a.outcome with
      | Contained _ -> { t with contained = t.contained + 1 }
      | Escaped _ -> { t with escaped = t.escaped + 1 }
      | Diverged _ -> { t with diverged = t.diverged + 1 })
    { contained = 0; escaped = 0; diverged = 0 }
    r.attempts

let escapes r =
  List.filter (fun a -> match a.outcome with Escaped _ -> true | _ -> false) r.attempts

let pp_outcome ppf = function
  | Contained k -> Format.fprintf ppf "contained (%s)" (X.trap_name k)
  | Escaped why -> Format.fprintf ppf "ESCAPED: %s" why
  | Diverged why -> Format.fprintf ppf "diverged (%s)" why

let pp_report ppf r =
  let t = tally r in
  Format.fprintf ppf "%-12s  %d attempts: %d contained, %d diverged, %d escaped@."
    r.strategy_name
    (List.length r.attempts)
    t.contained t.diverged t.escaped;
  List.iter
    (fun a ->
      match a.outcome with
      | Escaped _ ->
          Format.fprintf ppf "  !! %s %s (%s): %a@." a.a_class a.a_desc a.a_entry
            pp_outcome a.outcome
      | _ -> ())
    r.attempts

(* --- self test ---------------------------------------------------------- *)

(* Weakening 1: simple allocator, no ColorGuard — host maps an rw page
   inside what should be the unmapped guard window. The unmutated probe
   must come back Escaped; if it doesn't, the harness cannot see escapes. *)
let self_test_guard_hole () =
  let cfg = Codegen.default_config ~strategy:Strategy.segue () in
  let compiled = Codegen.compile cfg (attack_module ()) in
  let engine =
    Runtime.create_engine ~allocator:(Runtime.Simple { reservation = 4 * Units.gib }) compiled
  in
  let inst = Runtime.instantiate engine in
  let space = Runtime.space engine in
  let hole = Runtime.heap_base inst + 0x7FF0_0000 in
  (match Space.map space ~addr:hole ~len:Space.page_size ~prot:Prot.rw with
  | Ok () -> ()
  | Error m -> failwith ("self-test: map guard hole: " ^ m));
  Space.write32 space hole (Int32.of_int canary);
  let before = "" and after = "" in
  let result = Runtime.invoke_protected ~fuel inst "probe" [ 0x7FF0_0000L ] in
  match classify ~before ~after result with
  | Escaped _ -> Ok ()
  | o ->
      Error
        (Format.asprintf
           "self-test: guard hole not detected as escape (got %a)" pp_outcome o)

(* Weakening 2: striped pool, ColorGuard on, but the entry sequence loads
   the *host* PKRU image (allow-all) instead of the sandbox image — the
   neighbour probe must read the victim's canary and classify Escaped. *)
let self_test_pkru_swap () =
  let compiled = compile_strategy Strategy.segue in
  let layout = pool_layout () in
  let weakened =
    Array.map
      (map_mem (fun m ->
           if is_fs_mem Codegen.vmctx_pkru_sandbox m then
             { m with X.disp = Codegen.vmctx_pkru_host }
           else m))
      compiled.Codegen.program
  in
  let delta = layout.Pool.slot_bytes in
  let outcome =
    run_attempt layout
      { compiled with Codegen.program = weakened }
      ~entry:"probe"
      ~args:[ Int64.of_int (delta + canary_addr) ]
  in
  match outcome with
  | Escaped _ -> Ok ()
  | o ->
      Error
        (Format.asprintf
           "self-test: pkru swap not detected as escape (got %a)" pp_outcome o)

let self_test () =
  match self_test_guard_hole () with
  | Error _ as e -> e
  | Ok () -> self_test_pkru_swap ()
