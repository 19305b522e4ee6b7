(* The compiled engine: blocks compiled on first entry, and the dispatch
   loop that runs them. Every dispatch runs slots [j, j+m) of one block,
   where [j = pc - b_start] and [m] is the smaller of the slots left in
   the block and the remaining fuel — one slot for a [Bbypass] block — so
   a fuel edge splits a block and a mid-block entry (a fuel edge, a wild
   [Jmp_reg] target) needs no second path. The range's fixed charges
   (instructions, code bytes, fixed and front-end cycles) are issued once
   up front from the block's prefix sums; dynamic costs — dTLB walks,
   dcache misses, load/store counters, taken-branch cycles,
   segment/PKRU side effects — stay live inside the per-op bodies
   ([Decode.compile_body]), so at every dispatch boundary the counters
   are bit-identical to what [Decode.step] would have produced.

   Inside a range the up-front charges run ahead of [step]. A range of a
   trappable class runs guarded: each body publishes its slot in [t.pc]
   and the range marks itself in [t.batch_end], so [lead] can say how far
   ahead the charges are. [run]'s exception handler rolls them back by
   that much; the trace clock and [Machine.counters] subtract it,
   so anything observing from inside a body (a trace event's timestamp, a
   sanitizer report) sees exactly [step]'s counters. Pure blocks emit
   nothing and cannot trap, and a one-slot range is never ahead, so
   neither is guarded. *)

open Sfi_x86.Ast
open Mstate
open Decode
open Translate

(* Compile block [bi] on its first entry and install the compiled copy in
   its [blocks] slot. Prefix sums run over the block's first [j] dispatch
   slots; labels contribute nothing: they encode to no bytes (so the
   bytes are an offset difference), and [step] retires no instruction and
   charges no fixed cycles for them. *)
let compile_block t (l : loaded) bi =
  let b = l.blocks.(bi) in
  let s = b.b_start and k = b.b_len in
  let prog = l.program in
  (* Bodies are filled in the loop, not by [Array.init]: see DESIGN.md, load path. *)
  let bodies = Array.make k (fun _ -> ()) in
  let pre_bytes = Array.make (k + 1) 0 in
  let pre_fixed = Array.make (k + 1) 0 in
  let pre_instrs = Array.make (k + 1) 0 in
  for j = 0 to k - 1 do
    let i = prog.(s + j) in
    let is_label = match i with Label _ -> true | _ -> false in
    bodies.(j) <- compile_body t l (s + j);
    pre_bytes.(j + 1) <- l.offsets.(s + j + 1) - l.offsets.(s);
    pre_fixed.(j + 1) <- (pre_fixed.(j) + if is_label then 0 else fixed_cycles t i);
    pre_instrs.(j + 1) <- (pre_instrs.(j) + if is_label then 0 else 1)
  done;
  let b = { b with bodies; pre_bytes; pre_fixed; pre_instrs } in
  l.blocks.(bi) <- b;
  (* A promotion: the block can run more than one slot per dispatch. *)
  if k >= 2 && b.b_class <> Bbypass then begin
    l.promoted <- l.promoted + 1;
    t.tier_promotions <- t.tier_promotions + 1;
    if Sfi_trace.Trace.enabled t.trace then
      Sfi_trace.Trace.tier_promote t.trace ~cls:(class_rank b.b_class) ~block:s ~len:k
  end;
  b

(* [t.lead], filled with how far the guarded range in flight has charged
   ahead of [step], which by now would have charged every slot up to and
   including the one at [t.pc]. All zero outside a guarded range. The
   range's [bytes] ahead moved the fetch accumulator from [step]'s value
   [f] to [r = (f + bytes) mod bpc] and charged [(f + bytes) / bpc]
   front-end cycles where [step] charged none; since [f < bpc], those are
   [0] when [bytes <= r] and [ceil ((bytes - r) / bpc)] otherwise. *)
let lead t =
  let a = t.lead in
  if t.batch_end < 0 then begin
    a.l_instrs <- 0;
    a.l_bytes <- 0;
    a.l_cycles <- 0;
    a.l_fetch <- 0
  end
  else begin
    let l = get_loaded t in
    let b = l.blocks.(l.block_of.(t.pc)) in
    let d = t.pc - b.b_start + 1 and e = t.batch_end - b.b_start in
    let bytes = b.pre_bytes.(e) - b.pre_bytes.(d) in
    let bpc = t.cost.Cost.frontend_bytes_per_cycle in
    let r = t.fetch_accum in
    let front = if bpc > 0 && bytes > r then (bytes - r + bpc - 1) / bpc else 0 in
    a.l_instrs <- b.pre_instrs.(e) - b.pre_instrs.(d);
    a.l_bytes <- bytes;
    a.l_cycles <- b.pre_fixed.(e) - b.pre_fixed.(d) + front;
    a.l_fetch <- (if bpc > 0 then bytes - (front * bpc) else 0)
  end;
  a

(* Run slots [j, e) of compiled block [b], [j = t.pc - b_start], within
   [budget] dispatch slots; returns [e - j]. *)
let exec_range t b budget =
  let s = b.b_start and k = b.b_len and cls = b.b_class in
  let j = t.pc - s in
  let e = if cls == Bbypass then j + 1 else if k - j <= budget then k else j + budget in
  let c = t.counters in
  (* [0 <= j < e <= k]: in bounds of every prefix-sum array. *)
  let n_instrs = Array.unsafe_get b.pre_instrs e - Array.unsafe_get b.pre_instrs j in
  let bytes = Array.unsafe_get b.pre_bytes e - Array.unsafe_get b.pre_bytes j in
  c.instructions <- c.instructions + n_instrs;
  c.code_bytes <- c.code_bytes + bytes;
  c.cycles <- c.cycles + (Array.unsafe_get b.pre_fixed e - Array.unsafe_get b.pre_fixed j);
  let bpc = t.cost.Cost.frontend_bytes_per_cycle in
  if bpc > 0 then begin
    (* One hardware divide: [mod] would issue a second. *)
    let total = t.fetch_accum + bytes in
    let q = total / bpc in
    c.cycles <- c.cycles + q;
    t.fetch_accum <- total - (q * bpc)
  end;
  let bodies = b.bodies in
  if e - j = 1 then (Array.unsafe_get bodies j) t
  else begin
    t.sb_retired <- t.sb_retired + n_instrs;
    if cls == Bpure then
      for i = j to e - 1 do
        (Array.unsafe_get bodies i) t
      done
    else begin
      (* A raise leaves the marker set for [run]'s handler. *)
      t.batch_end <- s + e;
      for i = j to e - 1 do
        (* Publish the slot before running it, so a trap (and the
           sanitizer's fault attribution) lands on the right instruction
           and [lead] knows how far the range got. *)
        t.pc <- s + i;
        (Array.unsafe_get bodies i) t
      done;
      t.batch_end <- -1
    end
  end;
  (* Only a block's last slot can set the successor pc itself. *)
  if e < k || not b.b_jumps then t.pc <- s + e;
  e - j

(* The compiled engine's dispatch loop. *)
let run t ~fuel =
  let l = get_loaded t in
  let blocks = l.blocks and block_of = l.block_of in
  let sampling = t.prof_interval > 0 in
  if fuel <= 0 then Yielded
  else if t.pc < 0 || t.pc > Array.length l.program then Trapped Trap_out_of_bounds
  else begin
    let budget = ref fuel in
    try
      while !budget > 0 do
        let bi = block_of.(t.pc) in
        let b = blocks.(bi) in
        let b = if Array.length b.bodies = 0 then compile_block t l bi else b in
        let slots = exec_range t b !budget in
        budget := !budget - slots;
        if sampling then prof_sample t slots
      done;
      Yielded
    with ex -> (
      (* Leaving a guarded range by an exception: charge exactly what
         [step] would have by the faulting slot — it charges an
         instruction's prologue and fixed cycles before any of its trap
         points, so that slot stays charged; dynamic charges issued by
         completed bodies are already exact. *)
      if t.batch_end >= 0 then begin
        let a = lead t and c = t.counters in
        c.instructions <- c.instructions - a.l_instrs;
        c.code_bytes <- c.code_bytes - a.l_bytes;
        c.cycles <- c.cycles - a.l_cycles;
        t.fetch_accum <- t.fetch_accum - a.l_fetch;
        t.sb_retired <- t.sb_retired - a.l_instrs;
        t.batch_end <- -1
      end;
      match ex with
      | Halt_exn | Hostcall_exit _ -> Halted
      | Trap_exn k -> Trapped k
      | _ -> raise ex)
  end
