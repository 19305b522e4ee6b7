(* Program installation: [install] resolves labels, byte offsets and
   direct-branch targets and partitions the program into classified basic
   blocks, compiling nothing — the compiled engine ([Tier]) compiles a
   block on its first entry. Also the per-instruction facts block
   compilation needs: the fixed cycle charge and whether an op sets the
   successor pc itself. *)

open Sfi_x86.Ast
open Mstate
module Encode = Sfi_x86.Encode

(* The cycle charge [step] issues unconditionally, before any trap point —
   everything except dynamic charges (TLB walk, dcache miss, load/store
   latency, the taken-branch adder). The compiled engine charges it once
   per dispatched range. *)
let fixed_cycles t (i : instr) =
  let c = t.cost in
  match i with
  | Label _ | Trap _ -> 0
  | Nop | Mov _ | Movzx _ | Movsx _ | Alu _ | Shift _ | Bitcnt _ | Cqo _ | Neg _ | Not _ | Cmp _
  | Test _ | Setcc _ | Cmovcc _ | Rdfsbase _ | Rdgsbase _ | Rdpkru ->
      c.Cost.alu_cycles
  | Lea _ -> c.Cost.lea_cycles
  | Imul _ -> c.Cost.mul_cycles
  | Div _ -> c.Cost.div_cycles
  | Jmp _ -> c.Cost.branch_cycles + c.Cost.taken_branch_cycles
  | Jcc _ -> c.Cost.branch_cycles
  | Jmp_reg _ -> c.Cost.indirect_branch_cycles
  | Call _ -> c.Cost.call_ret_cycles
  | Call_reg _ -> c.Cost.call_ret_cycles + c.Cost.indirect_branch_cycles
  | Ret -> c.Cost.call_ret_cycles
  | Push _ -> c.Cost.store_cycles
  | Pop _ -> c.Cost.load_cycles
  | Wrfsbase _ | Wrgsbase _ ->
      if t.fsgsbase_available then c.Cost.wrsegbase_cycles else c.Cost.wrsegbase_syscall_cycles
  | Wrpkru -> c.Cost.wrpkru_cycles
  | Vload _ | Vstore _ | Vzero _ | Vdup8 _ -> c.Cost.vector_cycles
  | Hostcall _ -> c.Cost.hostcall_cycles

(* Ops whose body establishes the successor pc itself (or always raises).
   Everything else falls through to [idx + 1]. *)
let is_control = function
  | Jmp _ | Jcc _ | Jmp_reg _ | Call _ | Call_reg _ | Ret | Wrpkru | Trap _ -> true
  | _ -> false

(* --- Basic-block discovery and classification --- *)

(* Instructions that end a basic block. Hostcall/Wrpkru fall through but
   terminate anyway so their hazard/bypass class does not poison the
   surrounding straight-line code. *)
let is_terminator = function
  | Jmp _ | Jcc _ | Jmp_reg _ | Call _ | Call_reg _ | Ret | Hostcall _ | Trap _ | Wrpkru ->
      true
  | _ -> false

let class_rank = function Bpure -> 0 | Bload -> 1 | Bhazard -> 2 | Bbypass -> 3
let class_max a b = if class_rank a >= class_rank b then a else b

let instr_class ~targets idx (i : instr) =
  match i with
  | Label _ | Nop | Lea _ | Cqo _ | Setcc _ | Rdfsbase _ | Rdgsbase _ | Rdpkru | Wrfsbase _
  | Wrgsbase _ | Vzero _ | Vdup8 _ ->
      Bpure
  | Mov (_, dst, src) -> (
      match (dst, src) with Mem _, _ -> Bhazard | _, Mem _ -> Bload | _ -> Bpure)
  | Movzx (_, _, _, src) | Movsx (_, _, _, src) | Imul (_, _, src) | Bitcnt (_, _, _, src)
  | Cmovcc (_, _, _, src) -> (
      match src with Mem _ -> Bload | _ -> Bpure)
  | Alu (_, _, dst, src) -> (
      match (dst, src) with Mem _, _ -> Bhazard | _, Mem _ -> Bload | _ -> Bpure)
  | Shift (_, _, dst, _) | Neg (_, dst) | Not (_, dst) -> (
      match dst with Mem _ -> Bhazard | _ -> Bpure)
  | Cmp (_, a, b) | Test (_, a, b) -> (
      match (a, b) with Mem _, _ | _, Mem _ -> Bload | _ -> Bpure)
  (* Division can trap even register-to-register; the guarded range's
     rollback handles it, so it rides in the no-store class. *)
  | Div _ | Pop _ | Ret | Vload _ -> Bload
  | Push _ | Vstore _ | Call_reg _ | Jmp_reg _ | Wrpkru -> Bhazard
  (* Direct branches with an unresolved label raise [Not_found], even
     from an otherwise pure (unguarded) block; those blocks run one slot
     per dispatch, where a raise leaves no batched charge to roll back. *)
  | Jmp _ | Jcc _ -> if targets.(idx) >= 0 then Bpure else Bbypass
  | Call _ -> if targets.(idx) >= 0 then Bhazard else Bbypass
  | Hostcall _ | Trap _ -> Bbypass

(* Running past the last instruction is an out-of-bounds fetch, exactly
   as [step] treats pc >= n: the off-end sentinel block's only body. *)
let off_end _ = raise (Trap_exn Trap_out_of_bounds)

(* A block as [install] leaves it: no bodies, no prefix sums. A constant,
   so statically allocated (see DESIGN.md, load path). *)
let descriptor =
  {
    b_start = 0;
    b_len = 0;
    b_class = Bpure;
    b_jumps = false;
    bodies = [||];
    pre_instrs = [||];
    pre_bytes = [||];
    pre_fixed = [||];
  }

(* The block descriptors (the off-end sentinel, already compiled, last)
   and the instruction -> block index table. *)
let analyze_blocks program targets =
  let n = Array.length program in
  let leader idx =
    idx = 0
    || (match program.(idx) with Label _ -> true | _ -> false)
    || is_terminator program.(idx - 1)
  in
  (* Filled in place from a constant, not by [Array.of_list]: see
     DESIGN.md, load path. *)
  let nblocks = ref 0 in
  for idx = 0 to n - 1 do if leader idx then incr nblocks done;
  let blocks = Array.make (!nblocks + 1) descriptor in
  let block_of = Array.make (n + 1) !nblocks in
  let bi = ref 0 in
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let j = ref (s + 1) in
    while !j < n && not (leader !j) do
      incr j
    done;
    let cls = ref Bpure in
    for k = s to !j - 1 do
      cls := class_max !cls (instr_class ~targets k program.(k));
      block_of.(k) <- !bi
    done;
    blocks.(!bi) <-
      { descriptor with
        b_start = s;
        b_len = !j - s;
        b_class = !cls;
        b_jumps = is_control program.(!j - 1);
      };
    incr bi;
    i := !j
  done;
  blocks.(!nblocks) <-
    {
      b_start = n;
      b_len = 1;
      b_class = Bbypass;
      b_jumps = true;
      bodies = [| off_end |];
      pre_instrs = [| 0; 0 |];
      pre_bytes = [| 0; 0 |];
      pre_fixed = [| 0; 0 |];
    };
  (blocks, block_of)

(* --- Program installation (the body of [Machine.load_program]) --- *)

let install t program =
  let n = Array.length program in
  (* One encoding pass; offsets are its prefix sums, and the last one is
     the code length. *)
  let offsets = Array.make (n + 1) 0 in
  for idx = 0 to n - 1 do
    offsets.(idx + 1) <- offsets.(idx) + Encode.instr_length program.(idx)
  done;
  let code_len = offsets.(n) in
  let labels = Hashtbl.create 64 in
  Array.iteri
    (fun idx i ->
      match i with
      | Label l ->
          if Hashtbl.mem labels l then invalid_arg ("Machine.load_program: duplicate label " ^ l);
          Hashtbl.replace labels l idx
      | _ -> ())
    program;
  let targets =
    Array.map
      (function
        | Jmp l | Jcc (_, l) | Call l -> (
            match Hashtbl.find_opt labels l with Some i -> i | None -> -1)
        | _ -> -1)
      program
  in
  let blocks, block_of = analyze_blocks program targets in
  let l = { program; offsets; labels; code_len; targets; blocks; block_of; promoted = 0 } in
  t.loaded <- Some l;
  (* Samples collected against the replaced program describe instruction
     indices that no longer mean anything; they are dropped, and the loss
     is visible through [prof_dropped] whether or not the profiler is
     still armed. The histogram is resized for the new program (index n =
     off-end sentinel) when armed, and cleared when disarmed so stale
     counts can never be attributed to the new program's labels. *)
  let stale = Array.fold_left ( + ) 0 t.prof_counts in
  if stale > 0 then t.prof_dropped <- t.prof_dropped + stale;
  if t.prof_interval > 0 then t.prof_counts <- Array.make (n + 1) 0
  else if Array.length t.prof_counts > 0 then t.prof_counts <- [||];
  t.pc <- 0
