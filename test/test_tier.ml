(* Tests for the compiled engine's tier pipeline: profiler sample
   accounting across program swaps (the [profile_dropped] contract),
   promotion of a block on its first entry, mid-run (and of no block that never
   runs), bit-identity of that promotion with the reference interpreter
   at fuel edges before and after it (handcrafted, qcheck-random, and
   fuzzer corpus programs), traced runs that keep batching and stamp and
   observe exactly what the reference does, the page-access-cache
   invalidation edge across a superblock boundary, the
   allocation-free execution core, and every shape-specialized body
   against the reference interpreter. *)

module X = Sfi_x86.Ast
module Machine = Sfi_machine.Machine
module Lockstep = Sfi_machine.Lockstep
module Space = Sfi_vmem.Space
module Prot = Sfi_vmem.Prot
module Mpk = Sfi_vmem.Mpk
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Runtime = Sfi_runtime.Runtime
module Prng = Sfi_util.Prng
module Trace = Sfi_trace.Trace
module Fuzz = Sfi_fuzz.Fuzz

let mb = 1 lsl 20

let make_machine ?(setup = fun _ -> ()) instrs () =
  let space = Space.create () in
  (match Space.map space ~addr:mb ~len:(16 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error m -> failwith m);
  let m = Machine.create space in
  Machine.load_program m (Array.of_list ((X.Label "entry" :: instrs) @ [ X.Ret ]));
  Machine.set_reg m X.RSP (Int64.of_int (mb + (8 * Space.page_size)));
  setup m;
  m

(* A pure hot loop of [n] iterations, 6 instructions per trip. *)
let loop_program n =
  [
    X.Mov (X.W64, X.Reg X.RAX, X.Imm 0L);
    X.Mov (X.W64, X.Reg X.RCX, X.Imm (Int64.of_int n));
    X.Label "loop";
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Reg X.RCX);
    X.Alu (X.Xor, X.W64, X.Reg X.RDX, X.Reg X.RAX);
    X.Alu (X.Add, X.W64, X.Reg X.RDX, X.Imm 3L);
    X.Alu (X.Sub, X.W64, X.Reg X.RCX, X.Imm 1L);
    X.Cmp (X.W64, X.Reg X.RCX, X.Imm 0L);
    X.Jcc (X.NE, "loop");
  ]

(* ------------------------------------------------------------------ *)
(* Satellite: profiler samples across load_program.                    *)
(* ------------------------------------------------------------------ *)

let test_profile_dropped_on_swap () =
  let m = make_machine (loop_program 200) () in
  Machine.arm_profiler ~interval:4 m;
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "loop should halt");
  let s = Machine.profile_samples m in
  Alcotest.(check bool) "collected samples" true (s > 0);
  Alcotest.(check int) "nothing dropped yet" 0 (Machine.profile_dropped m);
  (* Swapping the program invalidates every collected PC: the histogram
     indexes the old instruction array. The samples must be surfaced as
     dropped, not silently zeroed. *)
  Machine.load_program m [| X.Label "entry"; X.Nop; X.Ret |];
  Alcotest.(check int) "swap drops the histogram" s (Machine.profile_dropped m);
  Alcotest.(check int) "histogram empty after swap" 0 (Machine.profile_samples m);
  (* The profiler stays armed: the fresh program fills a fresh histogram. *)
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "nop program should halt");
  Alcotest.(check int) "dropped count is lifetime, not clobbered" s
    (Machine.profile_dropped m)

(* ------------------------------------------------------------------ *)
(* Promotion on first entry; tracing changes no dispatch.             *)
(* ------------------------------------------------------------------ *)

(* A pure block (entry, ends in jmp) followed by a hazardous block (the
   store) and a bypass block (the hostcall). *)
let mixed_program =
  [
    X.Mov (X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 2L);
    X.Jmp "stores";
    X.Label "stores";
    X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
    X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
    X.Hostcall 1;
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Nop;
  ]

(* Six blocks: the entry block (ends in the call), its return
   continuation, [used] up to its hostcall (bypass: never promoted), the
   rest of [used], [unused] — which never runs — and the one-slot [Ret]
   the harness appends. Three eligible blocks run. *)
let unreachable_fn_program =
  [
    X.Mov (X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 2L);
    X.Call "used";
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Ret;
    X.Label "used";
    X.Mov (X.W64, X.Reg X.RBX, X.Imm 5L);
    X.Hostcall 1;
    X.Alu (X.Add, X.W64, X.Reg X.RBX, X.Reg X.RAX);
    X.Ret;
    X.Label "unused";
    X.Mov (X.W64, X.Reg X.RCX, X.Imm 7L);
    X.Alu (X.Xor, X.W64, X.Reg X.RCX, X.Reg X.RCX);
    X.Ret;
  ]

let test_only_entered_blocks_promoted () =
  let setup m = Machine.set_hostcall_handler m (fun _ _ -> ()) in
  let m = make_machine ~setup unreachable_fn_program () in
  let st = Machine.tier_stats m in
  Alcotest.(check int) "blocks discovered" 6 st.Machine.blocks_total;
  Alcotest.(check int) "nothing promoted at load" 0 st.Machine.blocks_promoted;
  Alcotest.(check int) "no promotions at load" 0 st.Machine.promotions;
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "should halt");
  let st = Machine.tier_stats m in
  Alcotest.(check int) "the three entered blocks promoted" 3 st.Machine.blocks_promoted;
  Alcotest.(check int) "one promotion per entered block" 3 st.Machine.promotions;
  Alcotest.(check bool) "instructions retired in superblocks" true
    (st.Machine.superblock_instructions > 0);
  (* A second activation re-enters promoted blocks: no new promotions. *)
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "should halt again");
  Alcotest.(check int) "re-entry does not re-promote" 3
    (Machine.tier_stats m).Machine.promotions

(* A long-running loop promotes its blocks inside the first fuel slice,
   while the activation is still live, and never again however many
   trips it makes. *)
let test_hot_loop_promoted_mid_run () =
  let m = make_machine (loop_program 20_000) () in
  Alcotest.(check int) "nothing promoted before running" 0
    (Machine.tier_stats m).Machine.blocks_promoted;
  Machine.start m ~entry:"entry";
  (match Machine.run m ~fuel:64 with
  | Machine.Yielded -> ()
  | _ -> Alcotest.fail "first slice should yield mid-loop");
  let st = Machine.tier_stats m in
  Alcotest.(check bool) "loop promoted mid-run" true (st.Machine.blocks_promoted > 0);
  Alcotest.(check bool) "superblock instructions retired mid-run" true
    (st.Machine.superblock_instructions > 0);
  let promotions = st.Machine.promotions in
  (match Machine.run m ~fuel:1_000_000 with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "loop should halt");
  let st = Machine.tier_stats m in
  Alcotest.(check int) "later trips do not re-promote" promotions st.Machine.promotions;
  Alcotest.(check bool) "the loop body ran as a superblock" true
    (st.Machine.superblock_instructions > 6 * 19_000)

(* Two pure and two hazardous (store) blocks in sequence, then the
   load-class exit block ([Ret]). Each block spans four dispatch slots. *)
let alternating_program =
  [
    X.Mov (X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 2L);
    X.Jmp "store1";
    X.Label "store1";
    X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
    X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
    X.Jmp "pure2";
    X.Label "pure2";
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 3L);
    X.Alu (X.Xor, X.W64, X.Reg X.RDX, X.Reg X.RAX);
    X.Jmp "store2";
    X.Label "store2";
    X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ~disp:8 ()), X.Reg X.RAX);
    X.Mov (X.W64, X.Reg X.RCX, X.Mem (X.mem ~base:X.RBX ()));
    X.Jmp "done";
    X.Label "done";
    X.Nop;
  ]

(* A machine's events minus the compiled engine's own [tier.promote.*]
   instants, which the reference interpreter never emits. *)
let machine_events ring =
  List.filter (fun e -> e.Trace.ev_cat <> "tier") (Trace.events ring)

(* Run the first two blocks, then flush the dTLB, install a live sink and
   a sanitizer that records the counters it sees, and run the rest; the
   reference machine runs the same slices. The flush makes the second
   store block's first store miss, so its fill event is stamped from
   inside a guarded range with two slots still ahead of [step], and the
   sanitizer reads [Machine.counters] at both of that block's accesses. *)
let test_trace_keeps_batching () =
  let run engine =
    let m = make_machine alternating_program () in
    Machine.set_engine m engine;
    Machine.start m ~entry:"entry";
    (match Machine.run m ~fuel:8 with
    | Machine.Yielded -> ()
    | _ -> Alcotest.fail "first slice should yield");
    let promoted_before = (Machine.tier_stats m).Machine.blocks_promoted in
    let ring = Trace.create_ring ~capacity:64 () in
    Machine.flush_tlb m;
    Machine.set_trace m ring;
    let seen = ref [] in
    Machine.set_sanitizer m
      (Some
         (fun m ~kind:_ ~addr ~len:_ ->
           let c = Machine.counters m in
           seen :=
             (addr, c.Machine.instructions, c.Machine.cycles, c.Machine.code_bytes) :: !seen));
    (match Machine.run m ~fuel:1000 with
    | Machine.Halted -> ()
    | _ -> Alcotest.fail "should halt");
    (m, promoted_before, ring, List.rev !seen)
  in
  let m, before, ring, seen = run Machine.Compiled in
  Alcotest.(check int) "both entered blocks promoted" 2 before;
  let st = Machine.tier_stats m in
  Alcotest.(check int) "every entered block promoted once" 5 st.Machine.promotions;
  Alcotest.(check int) "every entered block running batched" 5 st.Machine.blocks_promoted;
  Alcotest.(check int) "every instruction retired in a batched range"
    (Machine.counters m).Machine.instructions st.Machine.superblock_instructions;
  Alcotest.(check (list string)) "the blocks entered under the sink announce their promotion"
    [ "tier.promote.pure"; "tier.promote.hazard"; "tier.promote.load" ]
    (List.filter_map
       (fun e -> if e.Trace.ev_cat = "tier" then Some e.Trace.ev_name else None)
       (Trace.events ring));
  let r, _, r_ring, r_seen = run Machine.Reference in
  let events = machine_events ring and r_events = machine_events r_ring in
  Alcotest.(check bool) "a dTLB fill was traced" true
    (List.exists (fun e -> e.Trace.ev_name = "tlb.fill") r_events);
  Alcotest.(check bool) "events identical to the reference's, timestamps included" true
    (events = r_events);
  Alcotest.(check int) "the sanitizer fired at every access" 3 (List.length r_seen);
  Alcotest.(check bool) "the sanitizer saw the reference's counters" true (seen = r_seen);
  Alcotest.(check bool) "snapshot bit-identical to reference" true
    (Machine.snapshot m = Machine.snapshot r)

(* ------------------------------------------------------------------ *)
(* Mid-run promotion is unobservable.                                  *)
(* ------------------------------------------------------------------ *)

(* Drive two identical machines in fixed slices; switch one of them from
   the reference interpreter to the compiled engine between two slices
   and demand the full snapshot stays bit-identical at every later slice
   edge. *)
let test_midrun_promotion_snapshot_identical () =
  let a = make_machine (loop_program 500) () in
  let b = make_machine (loop_program 500) () in
  Machine.set_engine a Machine.Reference;
  Machine.set_engine b Machine.Reference;
  Machine.start a ~entry:"entry";
  Machine.start b ~entry:"entry";
  let stride = 57 in
  let slice = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr slice;
    if !slice = 4 then Machine.set_engine b Machine.Compiled;
    let sa = Machine.run a ~fuel:stride in
    let sb = Machine.run b ~fuel:stride in
    if sa <> sb then Alcotest.failf "status diverged at slice %d" !slice;
    if Machine.snapshot a <> Machine.snapshot b then
      Alcotest.failf "snapshot diverged at slice %d" !slice;
    if sa <> Machine.Yielded then continue_ := false
  done;
  Alcotest.(check bool) "switched machine actually used superblocks" true
    (Machine.superblock_retired b > 0)

(* The same property via Lockstep, at strides that land fuel edges
   mid-block, so ranges start and end at any slot, on a block's first
   entry and after it. *)
let lockstep_strides ?setup instrs =
  List.iter
    (fun stride ->
      match
        Lockstep.run_pair ~stride ~make:(make_machine ?setup instrs) ~entry:"entry" ()
      with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "stride %d: engines diverged: %s" stride
            (Format.asprintf "%a" Lockstep.pp_divergence d))
    [ 1; 7; 97 ]

let test_lockstep_strides () =
  lockstep_strides (loop_program 300);
  lockstep_strides ~setup:(fun m -> Machine.set_hostcall_handler m (fun _ _ -> ())) mixed_program

(* Randomized: the compiled engine and the reference interpreter, each
   under a live trace sink, through the full Wasm pipeline. Every block
   batches under the sink exactly as without it, so agreement here —
   results, counters, memory, and every event one by one, timestamps
   included — pins "tracing is unobservable and stamps what [step]
   would" on generated programs. *)
let run_wasm engine m args =
  let cfg = Codegen.default_config ~strategy:Strategy.segue () in
  let compiled = Codegen.compile cfg m in
  let eng = Runtime.create_engine ~engine compiled in
  let ring = Trace.create_ring ~capacity:4096 () in
  Runtime.set_trace eng ring;
  let inst = Runtime.instantiate eng in
  let result = Runtime.invoke inst "run" args in
  let mach = Runtime.machine eng in
  ( result,
    Machine.counters mach,
    Machine.dtlb_misses mach,
    Machine.dcache_misses mach,
    Runtime.read_memory inst ~addr:0 ~len:4096,
    ring )

let check_traced_agrees seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let m = Test_random_programs.gen_module rng in
  let a = Int64.logand (Prng.next_int64 rng) 0xFFFFFFFFL in
  let b = Prng.next_int64 rng in
  let r_res, r_c, r_tlb, r_dc, r_mem, r_ring = run_wasm Machine.Reference m [ a; b ] in
  let t_res, t_c, t_tlb, t_dc, t_mem, t_ring = run_wasm Machine.Compiled m [ a; b ] in
  (match (r_res, t_res) with
  | Ok rv, Ok tv ->
      if rv <> tv then QCheck.Test.fail_reportf "seed %d: result %Ld vs %Ld" seed rv tv
  | Error rk, Error tk ->
      if rk <> tk then
        QCheck.Test.fail_reportf "seed %d: trap %s vs %s" seed (X.trap_name rk)
          (X.trap_name tk)
  | Ok rv, Error tk ->
      QCheck.Test.fail_reportf "seed %d: reference %Ld, compiled trapped %s" seed rv
        (X.trap_name tk)
  | Error rk, Ok tv ->
      QCheck.Test.fail_reportf "seed %d: reference trapped %s, compiled %Ld" seed
        (X.trap_name rk) tv);
  if r_c <> t_c then QCheck.Test.fail_reportf "seed %d: counters diverged" seed;
  if r_tlb <> t_tlb then QCheck.Test.fail_reportf "seed %d: dTLB %d vs %d" seed r_tlb t_tlb;
  if r_dc <> t_dc then QCheck.Test.fail_reportf "seed %d: dcache %d vs %d" seed r_dc t_dc;
  if not (String.equal r_mem t_mem) then
    QCheck.Test.fail_reportf "seed %d: final memory images differ" seed;
  if Trace.dropped r_ring > 0 || Trace.dropped t_ring > 0 then
    QCheck.Test.fail_reportf "seed %d: the ring dropped events" seed;
  let rec same i = function
    | [], [] -> ()
    | (r : Trace.event) :: rs, (c : Trace.event) :: cs ->
        if r <> c then
          QCheck.Test.fail_reportf
            "seed %d: event %d: reference %s/%s track %d (%d, %d) at %d ns, compiled %s/%s \
             track %d (%d, %d) at %d ns"
            seed i r.Trace.ev_cat r.Trace.ev_name r.Trace.ev_track r.Trace.ev_a0 r.Trace.ev_a1
            r.Trace.ev_ts c.Trace.ev_cat c.Trace.ev_name c.Trace.ev_track c.Trace.ev_a0
            c.Trace.ev_a1 c.Trace.ev_ts;
        same (i + 1) (rs, cs)
    | rs, cs ->
        QCheck.Test.fail_reportf "seed %d: %d reference vs %d compiled events" seed
          (i + List.length rs) (i + List.length cs)
  in
  same 0 (machine_events r_ring, machine_events t_ring);
  true

let qcheck_traced =
  QCheck.Test.make ~count:40 ~name:"compiled-traced = reference on random programs"
    QCheck.(int_range 20000 29999)
    check_traced_agrees

(* Fuzzer corpus: a dozen generated programs through the full oracle,
   whose engine arm is the reference / compiled / compiled-traced triple.
   Seeds deliberately disjoint from the test_fuzz corpus. *)
let test_fuzz_corpus_tiered () =
  for i = 0 to 11 do
    let p = Fuzz.generate (Int64.of_int (0xC0FFEE + i)) in
    let r = Fuzz.check_program p in
    match r.Fuzz.failure with
    | Some (oracle, detail) ->
        Alcotest.failf "seed %Ld: %s: %s" p.Fuzz.p_seed oracle detail
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Page-access cache invalidation across a superblock boundary.        *)
(* ------------------------------------------------------------------ *)

(* The hostcall mprotects the data page to read-only; the following block
   is a promoted (guarded) superblock whose store must still trap, with
   the unexecuted suffix rolled back so the snapshot matches the
   reference interpreter's. *)
let pcache_program =
  [
    X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
    X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
    X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
    X.Hostcall 1;
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Mov (X.W64, X.Reg X.RCX, X.Reg X.RAX);
    X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 6L);
    X.Alu (X.Add, X.W64, X.Reg X.RCX, X.Imm 2L);
    X.Nop;
  ]

let pcache_setup m =
  Machine.set_hostcall_handler m (fun m' _ ->
      match Space.protect (Machine.space m') ~addr:mb ~len:Space.page_size ~prot:Prot.r with
      | Ok () -> ()
      | Error e -> failwith e)

let test_pcache_superblock_boundary () =
  let run engine =
    let m = make_machine ~setup:pcache_setup pcache_program () in
    Machine.set_engine m engine;
    let st = Machine.execute m ~entry:"entry" () in
    (m, st, Machine.snapshot m)
  in
  let t2, st2, snap2 = run Machine.Compiled in
  (match st2 with
  | Machine.Trapped X.Trap_out_of_bounds -> ()
  | Machine.Trapped k -> Alcotest.failf "wrong trap: %s" (X.trap_name k)
  | _ -> Alcotest.fail "store after mprotect must trap under the compiled engine");
  (* The trapping store lives inside a promoted superblock: the trap
     crossed a batched block, exercising the rollback side table. *)
  Alcotest.(check bool) "store block was promoted" true
    ((Machine.tier_stats t2).Machine.blocks_promoted > 0);
  Alcotest.(check bool) "superblock entered before the trap" true
    (Machine.superblock_retired t2 > 0);
  let _, st_ref, snap_ref = run Machine.Reference in
  if st2 <> st_ref then Alcotest.fail "status differs from reference";
  Alcotest.(check bool) "post-trap snapshot bit-identical to reference" true
    (snap2 = snap_ref)

(* ------------------------------------------------------------------ *)
(* Allocation regression: the execution core must not box.             *)
(* ------------------------------------------------------------------ *)

(* A register+memory loop: loads, stores and read-modify-write ALU ops at
   several widths, sign/zero extension, shift, lea, imul, push/pop and a
   conditional branch, then one of each specialized 32-bit body (and the
   64-bit moves) — 41 instructions per trip. *)
let alloc_loop n =
  let at disp = X.Mem (X.mem ~base:X.RBX ~disp ()) in
  let r12 ?base ?index disp = X.Lea (X.W32, X.R12, X.mem ?base ?index ~disp ()) in
  let alu op dst src = X.Alu (op, X.W32, X.Reg dst, src) in
  let shift op count = X.Shift (op, X.W32, X.Reg X.R12, count) in
  [
    X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
    X.Mov (X.W64, X.Reg X.RCX, X.Imm (Int64.of_int n));
    X.Label "loop";
    X.Mov (X.W64, at 0, X.Reg X.RCX);
    X.Alu (X.Add, X.W64, X.Reg X.RAX, at 0);
    X.Alu (X.Xor, X.W32, at 8, X.Reg X.RAX);
    X.Mov (X.W16, at 16, X.Reg X.RAX);
    X.Movzx (X.W64, X.W16, X.RDX, at 16);
    X.Movsx (X.W64, X.W8, X.RSI, at 8);
    X.Shift (X.Shl, X.W64, X.Reg X.RDX, X.Count_imm 3);
    X.Lea (X.W64, X.RDI, X.mem ~base:X.RDX ~index:(X.RSI, X.S4) ~disp:7 ());
    X.Imul (X.W64, X.RDI, X.Reg X.RDX);
    X.Push (X.Reg X.RDI);
    X.Pop X.R8;
    X.Mov (X.W64, X.Reg X.R9, X.Reg X.RAX);
    X.Mov (X.W32, X.Reg X.R9, X.Reg X.R9);
    X.Mov (X.W32, X.Reg X.R10, X.Imm 0x1234L);
    X.Mov (X.W64, X.Reg X.R11, X.Imm 5L);
    X.Mov (X.W32, at 24, X.Reg X.R9);
    X.Mov (X.W32, X.Reg X.R9, at 24);
    X.Mov (X.W64, X.Reg X.R10, at 0);
    X.Movzx (X.W32, X.W8, X.R11, at 24);
    r12 ~base:X.R9 12;
    r12 ~index:(X.R9, X.S4) 12;
    r12 ~base:X.R12 ~index:(X.R9, X.S2) 1;
    X.Cmp (X.W32, X.Reg X.R9, X.Imm 7L);
    X.Jcc (X.AE, "ae");
    X.Label "ae";
    alu X.And X.R10 (X.Imm 0xFFL);
    alu X.Sub X.R10 (X.Imm 3L);
    alu X.Add X.R11 (X.Reg X.R9);
    alu X.Sub X.R11 (X.Reg X.R10);
    alu X.And X.R12 (X.Reg X.R11);
    alu X.Xor X.R12 (X.Reg X.R9);
    X.Cmp (X.W32, X.Reg X.R11, X.Reg X.R12);
    X.Test (X.W32, X.Reg X.R11, X.Reg X.R12);
    X.Imul (X.W32, X.R11, X.Reg X.R9);
    shift X.Shl (X.Count_imm 5);
    shift X.Shr (X.Count_imm 3);
    shift X.Sar (X.Count_imm 1);
    shift X.Rol (X.Count_imm 7);
    shift X.Shl X.Count_cl;
    X.Alu (X.Sub, X.W64, X.Reg X.RCX, X.Imm 1L);
    X.Cmp (X.W64, X.Reg X.RCX, X.Imm 0L);
    X.Jcc (X.NE, "loop");
  ]

(* Accesses that straddle a 64-byte line inside a page, at two addresses
   16 KiB apart: their lines share line-cache entries, so every access
   touches the dcache twice and both touches go through the line cache's
   miss path. Page-straddling accesses are left out: they go through
   [Space.read64]/[write64], which return a boxed [int64]. 6 instructions
   per trip. *)
let alloc_straddle_loop n =
  let at disp = X.Mem (X.mem ~base:X.RBX ~disp ()) in
  [
    X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int (mb + 60)));
    X.Mov (X.W64, X.Reg X.RCX, X.Imm (Int64.of_int n));
    X.Label "loop";
    X.Mov (X.W64, at 0, X.Reg X.RCX);
    X.Alu (X.Add, X.W64, X.Reg X.RAX, at 16384);
    X.Mov (X.W32, at 16386, X.Reg X.RAX);
    X.Alu (X.Sub, X.W64, X.Reg X.RCX, X.Imm 1L);
    X.Cmp (X.W64, X.Reg X.RCX, X.Imm 0L);
    X.Jcc (X.NE, "loop");
  ]

(* Minor-heap words spent running [loop n] for [n] trips, and the
   instructions that took. Compiling blocks on first use costs the same
   for every [n], so it cancels out of the difference the test takes. *)
let loop_minor_words ?(loop = alloc_loop) ~traced n =
  let m = make_machine (loop n) () in
  if traced then Machine.set_trace m (Trace.create_ring ~capacity:64 ());
  Machine.start m ~entry:"entry";
  let before = Gc.minor_words () in
  (match Machine.run m ~fuel:(1 lsl 30) with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "loop should halt");
  let words = Gc.minor_words () -. before in
  (words, (Machine.counters m).Machine.instructions)

let check_allocation_free ?loop () =
  List.iter
    (fun (name, traced) ->
      let w1, i1 = loop_minor_words ?loop ~traced 1_000 in
      let w2, i2 = loop_minor_words ?loop ~traced 10_000 in
      let per_instr = (w2 -. w1) /. float_of_int (i2 - i1) in
      if per_instr > 0.01 then
        Alcotest.failf "%s: %.3f minor words per extra instruction (%.0f -> %.0f words)" name
          per_instr w1 w2)
    [ ("compiled", false); ("compiled-traced", true) ]

let test_hot_path_allocation_free () = check_allocation_free ()

let test_line_straddle_allocation_free () =
  (* The loop really straddles: two lines at each address, plus the
     stack's one line for the return address. *)
  let m = make_machine (alloc_straddle_loop 100) () in
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "loop should halt");
  Alcotest.(check int) "cold dcache lines" 5 (Machine.dcache_misses m);
  check_allocation_free ~loop:alloc_straddle_loop ()

(* ------------------------------------------------------------------ *)
(* Load-path regression: no forced minor collections.                  *)
(* ------------------------------------------------------------------ *)

(* Past every 256-slot threshold on the load path: ~1,200 instructions in
   600 blocks (300 of them end in a direct call), and one 302-slot block,
   ended by an indirect call, that the compiled engine promotes whole. *)
let big_body =
  let blocks =
    List.init 300 (fun i ->
        [
          X.Label (Printf.sprintf "b%d" i);
          X.Call "leaf";
          X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 1L);
        ])
  in
  let straight = List.init 300 (fun _ -> X.Alu (X.Xor, X.W64, X.Reg X.RDX, X.Reg X.RAX)) in
  List.concat blocks
  @ (X.Label "long" :: straight)
  @ [ X.Call_reg X.RBX; X.Ret; X.Label "leaf"; X.Ret ]

let test_load_no_forced_minor_gc () =
  let program = Array.of_list (X.Label "entry" :: big_body) in
  Harness.check_no_forced_minor_gcs "20 engine loads" (fun () ->
      for _ = 1 to 20 do
        let m = Machine.create (Space.create ()) in
        Machine.load_program m program
      done);
  (* The program is real: it runs to completion, identically on the
     reference and compiled engines. *)
  lockstep_strides
    ~setup:(fun m -> Machine.set_reg m X.RBX (Int64.of_int (Machine.label_address m "leaf")))
    big_body

(* What [load_program] puts straight on the major heap is its arrays of
   more than 256 words: per-program tables. They must be a few words per
   instruction (offsets, targets, the block table and its index), never
   one per code byte. Promoted words are subtracted, so a minor
   collection during the load does not count. *)
let test_load_major_words () =
  let program = Array.of_list (X.Label "entry" :: big_body) in
  let n = Array.length program in
  let m = Machine.create (Space.create ()) in
  let _, p0, j0 = Gc.counters () in
  Machine.load_program m program;
  let _, p1, j1 = Gc.counters () in
  let direct = int_of_float (j1 -. j0 -. (p1 -. p0)) in
  let bound = (4 * n) + 512 in
  if direct > bound then
    Alcotest.failf "%d words straight on the major heap for %d instructions (%d code bytes; bound %d)"
      direct n (snd (Machine.code_bounds m)) bound

(* ------------------------------------------------------------------ *)
(* Specialized bodies against the reference interpreter.               *)
(* ------------------------------------------------------------------ *)

(* One row per body [Decode.compile_body] specializes. A row's program
   reads its operands from RAX ([a]) and RCX ([b]), or takes [b] as an
   immediate or shift count; RBX points at the data page, whose quadword
   at +8 holds [b]. *)
let shape_rows =
  let at = X.Mem (X.mem ~base:X.RBX ~disp:8 ()) in
  let gs_at = X.Mem (X.mem ~seg:X.GS ~index:(X.RDX, X.S8) ~disp:8 ~addr32:true ()) in
  let cnt b = Int64.to_int b land 63 in
  let alu op src _ _ = [ X.Alu (op, X.W32, X.Reg X.RAX, src) ] in
  let shift op _ b = [ X.Shift (op, X.W32, X.Reg X.RAX, X.Count_imm (cnt b)) ] in
  let jcc c _ _ =
    [ X.Cmp (X.W64, X.Reg X.RAX, X.Reg X.RCX); X.Jcc (c, "over"); X.Mov (X.W64, X.Reg X.RDX, X.Imm 7L); X.Label "over" ]
  in
  [
    ("mov64rr", fun _ _ -> [ X.Mov (X.W64, X.Reg X.RAX, X.Reg X.RCX) ]);
    ("mov32rr", fun _ _ -> [ X.Mov (X.W32, X.Reg X.RAX, X.Reg X.RCX) ]);
    ("mov64ri", fun _ b -> [ X.Mov (X.W64, X.Reg X.RAX, X.Imm b) ]);
    ("mov32ri", fun _ b -> [ X.Mov (X.W32, X.Reg X.RAX, X.Imm b) ]);
    ("mov64rm", fun _ _ -> [ X.Mov (X.W64, X.Reg X.RAX, at) ]);
    ("mov32rm", fun _ _ -> [ X.Mov (X.W32, X.Reg X.RAX, at) ]);
    ("mov32rm gs:addr32", fun _ _ -> [ X.Mov (X.W32, X.Reg X.RAX, gs_at) ]);
    ("mov64mr", fun _ _ -> [ X.Mov (X.W64, at, X.Reg X.RAX); X.Mov (X.W64, X.Reg X.RCX, at) ]);
    ("mov32mr", fun _ _ -> [ X.Mov (X.W32, at, X.Reg X.RAX); X.Mov (X.W64, X.Reg X.RCX, at) ]);
    ("movzx32_8m", fun _ _ -> [ X.Movzx (X.W32, X.W8, X.RAX, at) ]);
    ("movzx64_8m", fun _ _ -> [ X.Movzx (X.W64, X.W8, X.RAX, at) ]);
    ("lea32 b+d", fun _ _ -> [ X.Lea (X.W32, X.RAX, X.mem ~base:X.RCX ~disp:(-3) ()) ]);
    ( "lea32 i*s+d",
      fun _ _ -> [ X.Lea (X.W32, X.RAX, X.mem ~index:(X.RCX, X.S4) ~disp:0x7FFFFFF0 ~addr32:true ()) ] );
    ( "lea32 b+i*s+d",
      fun _ _ -> [ X.Lea (X.W32, X.RAX, X.mem ~base:X.RAX ~index:(X.RCX, X.S8) ~disp:5 ()) ] );
    ("and32ri", fun a b -> alu X.And (X.Imm b) a b);
    ("sub32ri", fun a b -> alu X.Sub (X.Imm b) a b);
    ("add32rr", alu X.Add (X.Reg X.RCX));
    ("sub32rr", alu X.Sub (X.Reg X.RCX));
    ("and32rr", alu X.And (X.Reg X.RCX));
    ("xor32rr", alu X.Xor (X.Reg X.RCX));
    ("cmp32ri", fun _ b -> [ X.Cmp (X.W32, X.Reg X.RAX, X.Imm b) ]);
    ("cmp32rr", fun _ _ -> [ X.Cmp (X.W32, X.Reg X.RAX, X.Reg X.RCX) ]);
    ("test32rr", fun _ _ -> [ X.Test (X.W32, X.Reg X.RAX, X.Reg X.RCX) ]);
    ("imul32r", fun _ _ -> [ X.Imul (X.W32, X.RAX, X.Reg X.RCX) ]);
    ("shl32ri", shift X.Shl);
    ("shr32ri", shift X.Shr);
    ("sar32ri", shift X.Sar);
    ("rol32ri", shift X.Rol);
    ("shl32 cl", fun _ _ -> [ X.Shift (X.Shl, X.W32, X.Reg X.RAX, X.Count_cl) ]);
    ("jae", jcc X.AE);
    ("jne", jcc X.NE);
  ]

(* 0, 1, -1, the 32-bit sign and range edges, [min_int64], and two values
   with garbage above bit 31 that a 32-bit form must ignore. *)
let shape_values =
  [ 0L; 1L; -1L; 0x7FFFFFFFL; 0x80000000L; 0xFFFFFFFFL; Int64.min_int; 0xDEADBEEF80000001L;
    0x12345678FFFFFFFEL ]

let all_conds = X.[ E; NE; L; LE; G; GE; B; BE; A; AE; S; NS ]

(* The row's op, then a Setcc on every condition, so each flag the op set
   is read back through a register. *)
let shape_program row a b =
  row a b @ List.map (fun c -> X.Setcc (c, X.RDX)) all_conds

let shape_setup a b m =
  Machine.set_reg m X.RAX a;
  Machine.set_reg m X.RCX b;
  Machine.set_reg m X.RBX (Int64.of_int mb);
  Machine.set_reg m X.RDX 0L;
  Machine.set_seg_base m X.GS mb;
  let q = Bytes.create 8 in
  Bytes.set_int64_le q 0 b;
  Space.write_bytes (Machine.space m) ~addr:(mb + 8) q

(* The data page of each machine [make] built, for comparing stores. *)
let data_page m = Space.read_bytes (Machine.space m) ~addr:mb ~len:64

let test_shape_differential () =
  List.iter
    (fun (name, row) ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let made = ref [] in
              let make () =
                let m = make_machine ~setup:(shape_setup a b) (shape_program row a b) () in
                made := m :: !made;
                m
              in
              (match Lockstep.run_pair ~stride:1 ~make ~entry:"entry" () with
              | Ok Machine.Halted -> ()
              | Ok _ -> Alcotest.failf "%s a=%Lx b=%Lx: did not halt" name a b
              | Error d ->
                  Alcotest.failf "%s a=%Lx b=%Lx: %s" name a b
                    (Format.asprintf "%a" Lockstep.pp_divergence d));
              match !made with
              | [ c; r ] ->
                  if not (Bytes.equal (data_page c) (data_page r)) then
                    Alcotest.failf "%s a=%Lx b=%Lx: memory differs" name a b
              | _ -> Alcotest.fail "Lockstep builds two machines")
            shape_values)
        shape_values)
    shape_rows

(* A specialized load or store that faults in the middle of a guarded
   range: the compiled engine must roll the range's charges back to the
   faulting slot and report the fault [step] reports. The block runs
   whole (one dispatch), then the same program runs at strides 1/7/97. *)
let test_shape_fault_mid_range () =
  let far = X.Mem (X.mem ~base:X.RBX ~disp:(16 * Space.page_size) ()) in
  List.iter
    (fun (name, faulting, write) ->
      let program =
        [
          X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
          X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Reg X.RBX);
          X.Alu (X.Add, X.W32, X.Reg X.RAX, X.Reg X.RBX);
          faulting;
          X.Alu (X.Sub, X.W32, X.Reg X.RAX, X.Imm 1L);
          X.Mov (X.W32, X.Mem (X.mem ~base:X.RBX ~disp:8 ()), X.Reg X.RAX);
        ]
      in
      let run engine =
        let m = make_machine program () in
        Machine.set_engine m engine;
        let st = Machine.execute m ~entry:"entry" () in
        (m, st)
      in
      let c, st_c = run Machine.Compiled and r, st_r = run Machine.Reference in
      if st_c <> Machine.Trapped X.Trap_out_of_bounds || st_r <> st_c then
        Alcotest.failf "%s: both engines must trap out of bounds" name;
      Alcotest.(check bool) (name ^ ": ran batched") true (Machine.superblock_retired c > 0);
      Alcotest.(check bool) (name ^ ": snapshot rolled back to step's") true
        (Machine.snapshot c = Machine.snapshot r);
      Alcotest.(check bool) (name ^ ": fault info") true
        (Machine.last_fault_info c
        = Some { Machine.fault_addr = mb + (16 * Space.page_size); fault_write = write }
        && Machine.last_fault_info c = Machine.last_fault_info r);
      Alcotest.(check bool) (name ^ ": memory") true (Bytes.equal (data_page c) (data_page r));
      lockstep_strides program)
    [
      ("mov64rm", X.Mov (X.W64, X.Reg X.RCX, far), false);
      ("mov32mr", X.Mov (X.W32, far, X.Reg X.RAX), true);
    ]

let case name f = Alcotest.test_case name `Quick f

let tests =
  [
    case "profiler: load_program surfaces dropped samples" test_profile_dropped_on_swap;
    case "promotion: only entered blocks, once each" test_only_entered_blocks_promoted;
    case "hot loop: promoted mid-run, once" test_hot_loop_promoted_mid_run;
    case "trace: a live sink keeps every block batching" test_trace_keeps_batching;
    case "mid-run promotion: snapshots bit-identical" test_midrun_promotion_snapshot_identical;
    case "lockstep: tiered engine pairs" test_lockstep_strides;
    QCheck_alcotest.to_alcotest qcheck_traced;
    case "fuzz corpus through the tiered engine arm" test_fuzz_corpus_tiered;
    case "page cache: invalidation across a superblock" test_pcache_superblock_boundary;
    case "hot path: no allocation per instruction" test_hot_path_allocation_free;
    case "hot path: no allocation per line-straddling access" test_line_straddle_allocation_free;
    case "load path: no forced minor collections" test_load_no_forced_minor_gc;
    case "load path: major words per instruction, not per code byte" test_load_major_words;
    case "shapes: specialized bodies = reference" test_shape_differential;
    case "shapes: a fault mid-range rolls back" test_shape_fault_mid_range;
  ]
