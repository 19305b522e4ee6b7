(* Tier 2: superblock promotion and the compiled engine's dispatch loop.
   Every eligible basic block head starts with a stub that promotes the
   block on its first entry, so only blocks that actually run are ever
   fused. A promoted basic block executes as one closure that charges
   instruction/code-byte/fixed-cycle counters once at block entry
   (constant-folded at promotion time) and then runs per-op
   bodies ([Decode.compile_body], the same ones tier 1 runs after its
   per-instruction prologue). Dynamic costs — dTLB walks, dcache misses,
   load/store counters, taken-branch cycles, segment/PKRU side effects —
   stay live inside the bodies, so at every dispatch boundary the
   counters are bit-identical to what [Decode.step] would have produced.
   Blocks that can fault mid-way run guarded: each body publishes its
   instruction index in [t.pc] before executing, and a prefix-sum side
   table rolls the batched charges back to exactly the faulting
   instruction before the trap is re-raised. *)

open Sfi_x86.Ast
open Mstate
open Decode
open Translate

(* Build and install the superblock closure for [b] in place of its stub
   ([arm] already set its [sb_len]). *)
let promote_block t (l : loaded) (b : block) =
  let s = b.b_start and k = b.b_len in
  let prog = l.program in
  (* Prefix sums over the block's first [j] dispatch slots: bytes fetched,
     fixed cycles, retired instructions. Labels contribute nothing —
     [step] never runs their prologue. Index [done_] = slots whose
     prologue+fixed [step] would have charged before a fault at slot
     [done_ - 1]. *)
  (* Bodies are filled in the loop, not by [Array.init]: see DESIGN.md, load path. *)
  let bodies = Array.make k (fun _ -> ()) in
  let pre_bytes = Array.make (k + 1) 0 in
  let pre_fixed = Array.make (k + 1) 0 in
  let pre_instrs = Array.make (k + 1) 0 in
  for j = 0 to k - 1 do
    let i = prog.(s + j) in
    let is_label = match i with Label _ -> true | _ -> false in
    bodies.(j) <- compile_body t l (s + j);
    pre_bytes.(j + 1) <- (pre_bytes.(j) + if is_label then 0 else l.lengths.(s + j));
    pre_fixed.(j + 1) <- (pre_fixed.(j) + if is_label then 0 else fixed_cycles t i);
    pre_instrs.(j + 1) <- (pre_instrs.(j) + if is_label then 0 else 1)
  done;
  let total_bytes = pre_bytes.(k) in
  let fixed = pre_fixed.(k) in
  let n_instrs = pre_instrs.(k) in
  let guarded = b.b_class <> Bpure in
  (* Successor pc for a block that falls through; a control-flow body
     sets its own. *)
  let exit_pc = if is_control prog.(s + k - 1) then -1 else s + k in
  let bpc = t.cost.Cost.frontend_bytes_per_cycle in
  let sb =
    if not guarded then fun t ->
      let c = t.counters in
      c.instructions <- c.instructions + n_instrs;
      c.code_bytes <- c.code_bytes + total_bytes;
      c.cycles <- c.cycles + fixed;
      t.sb_retired <- t.sb_retired + n_instrs;
      if bpc > 0 then begin
        let total = t.fetch_accum + total_bytes in
        c.cycles <- (c.cycles + (total / bpc));
        t.fetch_accum <- total mod bpc
      end;
      for j = 0 to k - 1 do
        (Array.unsafe_get bodies j) t
      done;
      (if exit_pc >= 0 then t.pc <- exit_pc)
    else fun t ->
      let c = t.counters in
      let accum_in = t.fetch_accum in
      c.instructions <- c.instructions + n_instrs;
      c.code_bytes <- c.code_bytes + total_bytes;
      c.cycles <- c.cycles + fixed;
      t.sb_retired <- t.sb_retired + n_instrs;
      if bpc > 0 then begin
        let total = accum_in + total_bytes in
        c.cycles <- (c.cycles + (total / bpc));
        t.fetch_accum <- total mod bpc
      end;
      try
        for j = 0 to k - 1 do
          (* Publish the slot index before executing so a trap (and the
             sanitizer's fault attribution) lands on the right
             instruction, and so the rollback below knows how far the
             block got. *)
          t.pc <- s + j;
          (Array.unsafe_get bodies j) t
        done;
        if exit_pc >= 0 then t.pc <- exit_pc
      with e ->
        (* Roll the batch back to the faulting slot: [step] charges an
           instruction's prologue and fixed cycles before any of its trap
           points, so the faulting slot itself stays charged. Dynamic
           charges issued by completed bodies are already exact. *)
        let done_ = t.pc - s + 1 in
        c.instructions <- c.instructions - (n_instrs - pre_instrs.(done_));
        c.code_bytes <- c.code_bytes - (total_bytes - pre_bytes.(done_));
        c.cycles <- c.cycles - (fixed - pre_fixed.(done_));
        if bpc > 0 then begin
          let front_all = (accum_in + total_bytes) / bpc in
          let front_done = (accum_in + pre_bytes.(done_)) / bpc in
          c.cycles <- c.cycles - (front_all - front_done);
          t.fetch_accum <- (accum_in + pre_bytes.(done_)) mod bpc
        end;
        t.sb_retired <- t.sb_retired - (n_instrs - pre_instrs.(done_));
        raise e
  in
  l.sb_exec.(s) <- sb;
  l.promoted <- l.promoted + 1;
  t.tier_promotions <- t.tier_promotions + 1;
  if Sfi_trace.Trace.enabled t.trace then
    Sfi_trace.Trace.tier_promote t.trace ~cls:(class_rank b.b_class) ~block:s ~len:k

(* Promotion policy. Blocks of one dispatch slot never promote (nothing
   to batch), nor do [Bbypass] blocks; trappable classes promote only
   while tracing is off, because their dynamic TLB/dcache/PKRU events
   carry cycle timestamps that batching would shift. [Bpure] blocks emit
   nothing and promote unconditionally. *)
let eligible t (b : block) =
  b.b_len >= 2
  &&
  match b.b_class with
  | Bpure -> true
  | Bload | Bhazard -> not (Sfi_trace.Trace.enabled t.trace)
  | Bbypass -> false

(* The initial [sb_exec] of every eligible block head: promote the block
   at [t.pc], then run the superblock that replaced this stub. The
   dispatch loop only calls it with a budget that covers the whole block,
   exactly as it would call the superblock. Closed, so statically
   allocated, like [Translate.compile_on_dispatch]. *)
let promote_on_entry t =
  let l = get_loaded t in
  promote_block t l l.blocks.(l.block_of.(t.pc));
  l.sb_exec.(t.pc) t

(* Match the superblock tables to the current eligibility: arm the stub
   on every eligible block head that has none, and demote every block
   that is no longer eligible — on [load_program], and on [set_trace],
   whose sink decides whether trappable blocks may batch. A demoted
   block's stale [sb_exec] is unreachable once [sb_len] is zeroed. *)
let arm t =
  match t.loaded with
  | None -> ()
  | Some l ->
      Array.iter
        (fun b ->
          let s = b.b_start in
          if eligible t b then begin
            if l.sb_len.(s) = 0 then begin
              l.sb_len.(s) <- b.b_len;
              l.sb_exec.(s) <- promote_on_entry
            end
          end
          else if l.sb_len.(s) > 0 then begin
            if l.sb_exec.(s) != promote_on_entry then l.promoted <- l.promoted - 1;
            l.sb_len.(s) <- 0
          end)
        l.blocks

(* The compiled engine's dispatch loop: superblock when the current pc
   heads one and the remaining budget covers all of its slots (so fuel
   boundaries stay aligned with tier-1 dispatch slots), single
   threaded-code dispatch otherwise. A superblock retires [k] dispatch
   slots of fuel — exactly what tier 1 would have spent on the same
   instructions. *)
let run t ~fuel =
  let l = get_loaded t in
  let code = l.exec in
  let sb_len = l.sb_len in
  let sb_exec = l.sb_exec in
  if fuel <= 0 then Yielded
  else if t.pc < 0 || t.pc > Array.length l.program then Trapped Trap_out_of_bounds
  else begin
    let budget = ref fuel in
    try
      if t.prof_interval > 0 then begin
        while !budget > 0 do
          let pc = t.pc in
          let k = sb_len.(pc) in
          if k > 0 && k <= !budget then begin
            budget := !budget - k;
            sb_exec.(pc) t;
            prof_sample t k
          end
          else begin
            decr budget;
            code.(pc) t;
            prof_sample t 1
          end
        done;
        Yielded
      end
      else begin
        while !budget > 0 do
          let pc = t.pc in
          let k = sb_len.(pc) in
          if k > 0 && k <= !budget then begin
            budget := !budget - k;
            sb_exec.(pc) t
          end
          else begin
            decr budget;
            code.(pc) t
          end
        done;
        Yielded
      end
    with
    | Halt_exn | Hostcall_exit _ -> Halted
    | Trap_exn k -> Trapped k
  end
