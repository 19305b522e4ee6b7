(* Differential validation of the compiled (closure-threaded) execution
   engine against the reference step interpreter: lockstep snapshot comparison on handcrafted
   programs covering every trap kind and control-flow shape, a randomized
   qcheck property reusing the test_random_programs generator through the
   full Wasm pipeline, and targeted tests for the page-access cache's
   invalidation edges (mprotect, pkru writes, unmap/generation bumps,
   madvise, host stores), a differential of the memory hit path against
   a per-access TLB walk, and where each refused access records its
   fault. *)

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

let mb = 1 lsl 20

(* A fresh machine per call: lockstep runs the thunk twice and the two
   machines must not share a Space. *)
let make_machine ?(pkru = Mpk.allow_all) ?(setup = fun _ -> ()) instrs () =
  let space = Space.create () in
  (match Space.map space ~addr:mb ~len:(16 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error m -> failwith m);
  let m = Machine.create space in
  Machine.load_program m (Array.of_list ((X.Label "entry" :: instrs) @ [ X.Ret ]));
  Machine.set_reg m X.RSP (Int64.of_int (mb + (8 * Space.page_size)));
  Machine.set_pkru m pkru;
  setup m;
  m

let lockstep ?pkru ?setup instrs =
  match Lockstep.run_pair ~make:(make_machine ?pkru ?setup instrs) ~entry:"entry" () with
  | Ok status -> status
  | Error d -> Alcotest.failf "engines diverged: %s" (Format.asprintf "%a" Lockstep.pp_divergence d)

let check_lockstep_halted ?pkru ?setup instrs =
  match lockstep ?pkru ?setup instrs with
  | Machine.Halted -> ()
  | Machine.Trapped k -> Alcotest.failf "trapped: %s" (X.trap_name k)
  | Machine.Yielded -> Alcotest.fail "yielded"

let check_lockstep_trap expected ?pkru ?setup instrs =
  match lockstep ?pkru ?setup instrs with
  | Machine.Trapped k when k = expected -> ()
  | Machine.Trapped k -> Alcotest.failf "wrong trap: %s" (X.trap_name k)
  | Machine.Halted -> Alcotest.fail "expected trap, halted"
  | Machine.Yielded -> Alcotest.fail "expected trap, yielded"

(* ------------------------------------------------------------------ *)
(* Lockstep on handcrafted programs.                                   *)
(* ------------------------------------------------------------------ *)

let test_lockstep_control_flow () =
  check_lockstep_halted
    [
      X.Mov (X.W64, X.Reg X.RAX, X.Imm 0L);
      X.Mov (X.W64, X.Reg X.RCX, X.Imm 10L);
      X.Label "loop";
      X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Reg X.RCX);
      X.Alu (X.Sub, X.W64, X.Reg X.RCX, X.Imm 1L);
      X.Cmp (X.W64, X.Reg X.RCX, X.Imm 0L);
      X.Jcc (X.NE, "loop");
      X.Jmp "over";
      X.Trap X.Trap_unreachable;
      X.Label "over";
      X.Call "leaf";
      X.Jmp "done";
      X.Label "leaf";
      X.Alu (X.Xor, X.W64, X.Reg X.RDX, X.Reg X.RDX);
      X.Setcc (X.E, X.RDX);
      X.Ret;
      X.Label "done";
      X.Cmovcc (X.NE, X.W64, X.RSI, X.Reg X.RAX);
      X.Nop;
    ]

let test_lockstep_indirect () =
  (* Jmp_reg / Call_reg through label addresses resolved after load. *)
  let setup m =
    Machine.set_reg m X.R10 (Int64.of_int (Machine.label_address m "target"));
    Machine.set_reg m X.R11 (Int64.of_int (Machine.label_address m "fn"))
  in
  check_lockstep_halted ~setup
    [
      X.Jmp_reg X.R10;
      X.Trap X.Trap_unreachable;
      X.Label "target";
      X.Call_reg X.R11;
      X.Jmp "done";
      X.Label "fn";
      X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 3L);
      X.Ret;
      X.Label "done";
      X.Nop;
    ]

let test_lockstep_memory_and_segments () =
  check_lockstep_halted
    [
      X.Wrfsbase X.RBP;
      (* RBP is 0 here: fs base 0 keeps absolute disp addressing valid. *)
      X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
      X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 0x1122334455667788L);
      X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ~disp:4 ()));
      X.Movzx (X.W64, X.W8, X.RCX, X.Mem (X.mem ~base:X.RBX ~disp:7 ()));
      X.Movsx (X.W64, X.W16, X.RDX, X.Mem (X.mem ~base:X.RBX ~disp:6 ()));
      X.Lea (X.W64, X.RSI, X.mem ~base:X.RBX ~index:(X.RCX, X.S8) ~disp:(-8) ());
      X.Push (X.Reg X.RAX);
      X.Push (X.Imm 42L);
      X.Pop X.RDI;
      X.Pop X.R8;
      X.Vdup8 (X.XMM 1, 0x5A);
      X.Vstore (X.mem ~base:X.RBX ~disp:64 (), X.XMM 1);
      X.Vload (X.XMM 2, X.mem ~base:X.RBX ~disp:64 ());
      X.Vzero (X.XMM 3);
      (* a page-crossing store exercises the slow path next to the fast one *)
      X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ~disp:4092 ()), X.Reg X.RAX);
      X.Shift (X.Rol, X.W64, X.Reg X.RAX, X.Count_imm 9);
      X.Mov (X.W8, X.Reg X.RCX, X.Imm 3L);
      X.Shift (X.Shl, X.W32, X.Reg X.RAX, X.Count_cl);
      X.Bitcnt (X.Popcnt, X.W64, X.R9, X.Reg X.RAX);
    ]

let test_lockstep_traps () =
  check_lockstep_trap X.Trap_unreachable [ X.Trap X.Trap_unreachable ];
  check_lockstep_trap X.Trap_indirect_call_type [ X.Trap X.Trap_indirect_call_type ];
  check_lockstep_trap X.Trap_out_of_bounds
    [ X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~disp:(5 * mb) ())) ];
  check_lockstep_trap X.Trap_integer_divide_by_zero
    [
      X.Mov (X.W64, X.Reg X.RAX, X.Imm 7L); X.Cqo X.W64;
      X.Div (X.W64, false, X.Imm 0L);
    ];
  check_lockstep_trap X.Trap_integer_overflow
    [
      X.Mov (X.W64, X.Reg X.RAX, X.Imm Int64.min_int); X.Cqo X.W64;
      X.Div (X.W64, true, X.Imm (-1L));
    ];
  (* jumping into the void is an out-of-bounds pc in both engines *)
  check_lockstep_trap X.Trap_out_of_bounds
    ~setup:(fun m -> Machine.set_reg m X.R10 2L)
    [ X.Jmp_reg X.R10 ]

let test_lockstep_pkru_and_hostcall () =
  (* wrpkru revoking the default key makes the next load trap, identically
     under both engines; a hostcall in between exercises the handler path. *)
  let setup m = Machine.set_hostcall_handler m (fun m' _ -> Machine.set_reg m' X.R15 99L) in
  check_lockstep_trap X.Trap_out_of_bounds ~setup
    [
      X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
      X.Mov (X.W64, X.Reg X.RDX, X.Mem (X.mem ~base:X.RBX ()));
      X.Hostcall 7;
      X.Rdpkru;
      X.Mov (X.W64, X.Reg X.RAX, X.Imm (Int64.of_int (Mpk.allow_only [ 1 ])));
      X.Wrpkru;
      X.Mov (X.W64, X.Reg X.RDX, X.Mem (X.mem ~base:X.RBX ()));
    ]

(* ------------------------------------------------------------------ *)
(* Randomized differential property through the full Wasm pipeline.    *)
(* ------------------------------------------------------------------ *)

let run_wasm engine m args =
  let cfg = Codegen.default_config ~strategy:Strategy.segue () in
  let compiled = Codegen.compile cfg m in
  let eng = Runtime.create_engine ~engine compiled in
  let inst = Runtime.instantiate eng in
  let result = Runtime.invoke inst "run" args in
  let mach = Runtime.machine eng in
  let c = Machine.counters mach in
  ( result,
    c,
    Machine.dtlb_misses mach,
    Machine.dcache_misses mach,
    Runtime.read_memory inst ~addr:0 ~len:4096 )

let check_engines_agree seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let m = Test_random_programs.gen_module rng in
  let a = Int64.logand (Prng.next_int64 rng) 0xFFFFFFFFL in
  let b = Prng.next_int64 rng in
  let r_res, r_c, r_tlb, r_dc, r_mem = run_wasm Machine.Reference m [ a; b ] in
  let t_res, t_c, t_tlb, t_dc, t_mem = run_wasm Machine.Compiled m [ a; b ] in
  (match (r_res, t_res) with
  | Ok rv, Ok tv ->
      if rv <> tv then QCheck.Test.fail_reportf "seed %d: result %Ld vs %Ld" seed rv tv
  | Error rk, Error tk ->
      if rk <> tk then
        QCheck.Test.fail_reportf "seed %d: trap %s vs %s" seed (X.trap_name rk) (X.trap_name tk)
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
  true

let qcheck_differential =
  QCheck.Test.make ~count:60 ~name:"threaded = reference on random programs"
    QCheck.(int_range 1000 9999)
    check_engines_agree

(* ------------------------------------------------------------------ *)
(* Operand shape x width differential.                                 *)
(* ------------------------------------------------------------------ *)

(* Straight-line x86 covering every operand shape (register, immediate,
   memory) at every width for the ops whose compiled bodies specialise on
   resolved operands. Codegen output rarely writes 8/16-bit registers,
   where a partial write must keep the upper bits (a 32-bit write
   zero-extends), so this drives the machine directly. Registers start
   with high-bit values; RBX points a few bytes from a page boundary so
   memory operands straddle it, and at the top of the mapping some of them
   straddle into unmapped memory and trap mid-superblock. RBX and RSI (the
   address registers) are never written. *)

let shape_dsts = [| X.RAX; X.RCX; X.RDX; X.RDI; X.R8; X.R9; X.R10; X.R11 |]
let shape_srcs = Array.append shape_dsts [| X.RBX; X.RSI |]
let pick rng a = a.(Prng.int rng (Array.length a))

(* Full-range values, and the sign bits of every width +/- 1. *)
let high_bit_value rng =
  if Prng.bool rng then Prng.next_int64 rng
  else
    let v = Int64.shift_left 1L (pick rng [| 7; 15; 31; 63 |]) in
    pick rng [| v; Int64.pred v; Int64.neg v |]

let gen_mem rng =
  let index =
    if Prng.bool rng then Some (X.RSI, pick rng [| X.S1; X.S2; X.S4; X.S8 |]) else None
  in
  X.mem ~base:X.RBX ?index ~disp:(Prng.int_in rng (-12) 12) ~addr32:(Prng.int rng 4 = 0) ()

let gen_dst rng = if Prng.int rng 3 = 0 then X.Mem (gen_mem rng) else X.Reg (pick rng shape_dsts)

(* A source operand; at most one memory operand per instruction. *)
let gen_src rng ~dst =
  match (Prng.int rng 3, dst) with
  | 0, _ | 2, X.Mem _ -> X.Reg (pick rng shape_srcs)
  | 1, _ -> X.Imm (high_bit_value rng)
  | _ -> X.Mem (gen_mem rng)

let gen_shape_instr rng =
  let w = pick rng [| X.W8; X.W16; X.W32; X.W64 |] in
  let dst = gen_dst rng in
  let dreg = pick rng shape_dsts in
  let reg_or_mem () = if Prng.bool rng then X.Reg (pick rng shape_srcs) else X.Mem (gen_mem rng) in
  match Prng.int rng 12 with
  | 0 -> X.Mov (w, dst, gen_src rng ~dst)
  | 1 ->
      let dw = pick rng [| X.W16; X.W32; X.W64 |] in
      X.Movzx (dw, pick rng [| X.W8; X.W16 |], dreg, reg_or_mem ())
  | 2 ->
      let dw = pick rng [| X.W32; X.W64 |] in
      X.Movsx (dw, pick rng [| X.W8; X.W16; X.W32 |], dreg, reg_or_mem ())
  | 3 -> X.Alu (pick rng [| X.Add; X.Sub; X.And; X.Or; X.Xor |], w, dst, gen_src rng ~dst)
  | 4 -> X.Cmp (w, dst, gen_src rng ~dst)
  | 5 -> X.Test (w, dst, gen_src rng ~dst)
  | 6 ->
      let count = if Prng.bool rng then X.Count_cl else X.Count_imm (Prng.int rng 70) in
      X.Shift (pick rng [| X.Shl; X.Shr; X.Sar; X.Rol; X.Ror |], w, dst, count)
  | 7 -> X.Imul (w, dreg, gen_src rng ~dst:(X.Reg dreg))
  | 8 -> X.Neg (w, dst)
  | 9 -> X.Not (w, dst)
  | 10 ->
      let c = pick rng [| X.E; X.NE; X.L; X.LE; X.G; X.GE; X.B; X.BE; X.A; X.AE; X.S; X.NS |] in
      X.Cmovcc (c, w, dreg, reg_or_mem ())
  | _ ->
      (* Lea never touches memory: any register may form the address, so
         32-bit address wrap-around shows. *)
      let index = if Prng.bool rng then Some (pick rng shape_srcs, X.S8) else None in
      let base = pick rng shape_srcs and disp = Prng.int_in rng (-9) 9 in
      X.Lea (w, dreg, X.mem ~base ?index ~disp ~addr32:(Prng.bool rng) ())

(* Labels every few instructions split the program into several blocks,
   so the compiled engine runs ranges that end at block ends and ranges
   split at fuel edges. *)
let gen_shape_program rng =
  List.concat
    (List.init (Prng.int_in rng 20 40) (fun i ->
         let instr = gen_shape_instr rng in
         if i > 0 && Prng.int rng 6 = 0 then [ X.Label (Printf.sprintf "b%d" i); instr ]
         else [ instr ]))

let shape_setup rng =
  let top = Prng.bool rng in
  let boundary = mb + ((if top then 16 else 4) * Space.page_size) in
  let rbx = boundary + Prng.int_in rng (-10) (if top then -4 else 10) in
  let regs = Array.map (fun r -> (r, high_bit_value rng)) shape_dsts in
  let words = Array.init 8 (fun _ -> high_bit_value rng) in
  fun m ->
    Array.iter (fun (r, v) -> Machine.set_reg m r v) regs;
    Machine.set_reg m X.RBX (Int64.of_int rbx);
    Machine.set_reg m X.RSI (Int64.of_int (rbx land 3));
    Array.iteri
      (fun i v -> Space.write64 (Machine.space m) (boundary - 32 + (8 * i)) v)
      (if top then Array.sub words 0 4 else words)

let shape_memory m =
  let read page len =
    Space.read_bytes (Machine.space m) ~addr:(mb + (page * Space.page_size)) ~len
  in
  Bytes.cat (read 3 (2 * Space.page_size)) (read 15 Space.page_size)

let check_shapes_agree seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let program = gen_shape_program rng in
  let make = make_machine ~setup:(shape_setup rng) program in
  List.iter
    (fun stride ->
      match Lockstep.run_pair ~stride ~make ~entry:"entry" () with
      | Ok _ -> ()
      | Error d ->
          QCheck.Test.fail_reportf "seed %d: %s" seed
            (Format.asprintf "%a" Lockstep.pp_divergence d))
    [ 1; 7; 1000 ];
  let final engine =
    let m = make () in
    Machine.set_engine m engine;
    let st = Machine.execute m ~entry:"entry" () in
    (st, Machine.snapshot m, shape_memory m)
  in
  if final Machine.Compiled <> final Machine.Reference then
    QCheck.Test.fail_reportf "seed %d: final state or memory differs from the reference" seed;
  true

let qcheck_shapes =
  QCheck.Test.make ~count:200 ~name:"operand shape x width: reference = compiled"
    QCheck.(int_range 0 99999)
    check_shapes_agree

(* ------------------------------------------------------------------ *)
(* Page-access cache invalidation edges.                               *)
(* ------------------------------------------------------------------ *)

(* Run the same program on a given engine with a private machine; used to
   assert machine-observable state the lockstep API does not expose. *)
let run_with engine ?pkru ?setup instrs =
  let m = make_machine ?pkru ?setup instrs () in
  Machine.set_engine m engine;
  let st = Machine.execute m ~entry:"entry" () in
  (m, st)

let both_engines f =
  List.iter (fun e -> f e) [ Machine.Reference; Machine.Compiled ]

let test_pcache_prot_change () =
  (* A warm read of the page must not let a later store bypass mprotect. *)
  both_engines (fun engine ->
      let setup m =
        Machine.set_hostcall_handler m (fun m' _ ->
            match
              Space.protect (Machine.space m') ~addr:mb ~len:Space.page_size ~prot:Prot.r
            with
            | Ok () -> ()
            | Error e -> failwith e)
      in
      let _, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
            X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
            X.Hostcall 1;
            X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 6L);
          ]
      in
      match st with
      | Machine.Trapped X.Trap_out_of_bounds -> ()
      | st ->
          Alcotest.failf "store after mprotect: expected oob trap, got %s"
            (match st with
            | Machine.Halted -> "halted"
            | Machine.Yielded -> "yielded"
            | Machine.Trapped k -> X.trap_name k))

let test_pcache_pkru_write () =
  (* set_pkru from the host between runs must flush the baked verdicts.
     The data page gets its own pkey so the stack (key 0) stays usable. *)
  both_engines (fun engine ->
      let setup m =
        let space = Machine.space m in
        (match Space.map space ~addr:(2 * mb) ~len:Space.page_size ~prot:Prot.rw with
        | Ok () -> ()
        | Error e -> failwith e);
        match
          Space.pkey_protect space ~addr:(2 * mb) ~len:Space.page_size ~prot:Prot.rw ~key:2
        with
        | Ok () -> ()
        | Error e -> failwith e
      in
      let m =
        make_machine ~setup [ X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~disp:(2 * mb) ())) ] ()
      in
      Machine.set_engine m engine;
      (match Machine.execute m ~entry:"entry" () with
      | Machine.Halted -> ()
      | _ -> Alcotest.fail "first load should succeed");
      Machine.set_pkru m (Mpk.allow_only [ 0 ]);
      match Machine.execute m ~entry:"entry" () with
      | Machine.Trapped X.Trap_out_of_bounds -> ()
      | _ -> Alcotest.fail "load after set_pkru should trap")

let test_pcache_unmap () =
  (* unmap bumps the space generation; the cached translation must die. *)
  both_engines (fun engine ->
      let setup m =
        Machine.set_hostcall_handler m (fun m' _ ->
            match Space.unmap (Machine.space m') ~addr:mb ~len:Space.page_size with
            | Ok () -> ()
            | Error e -> failwith e)
      in
      let _, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
            X.Hostcall 1;
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
          ]
      in
      match st with
      | Machine.Trapped X.Trap_out_of_bounds -> ()
      | _ -> Alcotest.fail "load after unmap should trap")

let test_pcache_madvise () =
  (* madvise(DONTNEED) drops the backing page: the cached bytes must not
     serve the stale contents. *)
  both_engines (fun engine ->
      let setup m =
        Machine.set_hostcall_handler m (fun m' _ ->
            match Space.madvise_dontneed (Machine.space m') ~addr:mb ~len:Space.page_size with
            | Ok () -> ()
            | Error e -> failwith e)
      in
      let m, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
            X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 0xABL);
            X.Mov (X.W64, X.Reg X.RCX, X.Mem (X.mem ~base:X.RBX ()));
            X.Hostcall 1;
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
          ]
      in
      (match st with Machine.Halted -> () | _ -> Alcotest.fail "should halt");
      Alcotest.(check int64) "read before madvise" 0xABL (Machine.get_reg m X.RCX);
      Alcotest.(check int64) "read after madvise is zero" 0L (Machine.get_reg m X.RAX))

let test_pcache_host_write_visible () =
  (* Host-side stores through the Space must be visible to a machine with
     a warm page cache. *)
  both_engines (fun engine ->
      let setup m =
        Machine.set_hostcall_handler m (fun m' _ ->
            Space.write64 (Machine.space m') mb 7L)
      in
      let m, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
            X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
            X.Mov (X.W64, X.Reg X.RCX, X.Mem (X.mem ~base:X.RBX ()));
            X.Hostcall 1;
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
          ]
      in
      (match st with Machine.Halted -> () | _ -> Alcotest.fail "should halt");
      Alcotest.(check int64) "read before host store" 5L (Machine.get_reg m X.RCX);
      Alcotest.(check int64) "host store visible" 7L (Machine.get_reg m X.RAX))

(* ------------------------------------------------------------------ *)
(* Fault attribution: recorded where each refusal raises.              *)
(* ------------------------------------------------------------------ *)

let check_fault what m expected =
  let show = function
    | None -> "none"
    | Some { Machine.fault_addr; fault_write } ->
        Printf.sprintf "0x%x (%s)" fault_addr (if fault_write then "write" else "read")
  in
  let got = Machine.last_fault_info m in
  if got <> expected then Alcotest.failf "%s: fault %s, expected %s" what (show got) (show expected)

let expect_oob what = function
  | Machine.Trapped X.Trap_out_of_bounds -> ()
  | _ -> Alcotest.failf "%s: expected an out-of-bounds trap" what

let test_fault_straddle_second_page () =
  (* The first page is warm in the page cache; the store's second page is
     read-only, so the walk of that page refuses it. *)
  both_engines (fun engine ->
      let page4 = mb + (4 * Space.page_size) in
      let setup m =
        match Space.protect (Machine.space m) ~addr:page4 ~len:Space.page_size ~prot:Prot.r with
        | Ok () -> ()
        | Error e -> failwith e
      in
      let m, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~disp:(page4 - 64) ()));
            X.Mov (X.W64, X.Mem (X.mem ~disp:(page4 - 4) ()), X.Imm 1L);
          ]
      in
      expect_oob "straddling store" st;
      check_fault "straddling store" m
        (Some { Machine.fault_addr = page4 - 4; fault_write = true }))

let test_fault_pinned_verdict () =
  (* With key 2 write-disabled, a load pins the page with reads allowed
     and writes refused; a store elsewhere on the page is refused by that
     pinned verdict, and the fault names the store. *)
  both_engines (fun engine ->
      let page = 2 * mb in
      let setup m =
        let space = Machine.space m in
        (match Space.map space ~addr:page ~len:Space.page_size ~prot:Prot.rw with
        | Ok () -> ()
        | Error e -> failwith e);
        (match Space.pkey_protect space ~addr:page ~len:Space.page_size ~prot:Prot.rw ~key:2 with
        | Ok () -> ()
        | Error e -> failwith e);
        Machine.set_pkru m (1 lsl 5)
      in
      let m, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~disp:(page + 8) ()));
            X.Mov (X.W32, X.Mem (X.mem ~disp:(page + 100) ()), X.Imm 1L);
          ]
      in
      expect_oob "store under a write-disabled key" st;
      Alcotest.(check int) "the store hit the pinned translation" 1 (Machine.dtlb_hits m);
      check_fault "store under a write-disabled key" m
        (Some { Machine.fault_addr = page + 100; fault_write = true }))

let test_fault_sanitizer_leaves_none () =
  (* A sanitizer violation is not an architectural fault. *)
  both_engines (fun engine ->
      let m =
        make_machine
          [
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~disp:mb ()));
            X.Mov (X.W64, X.Mem (X.mem ~disp:(mb + 8) ()), X.Imm 1L);
          ]
          ()
      in
      Machine.set_engine m engine;
      Machine.start m ~entry:"entry";
      Machine.set_sanitizer m
        (Some
           (fun _ ~kind ~addr ~len ->
             if kind = Machine.San_write then
               raise
                 (Runtime.Sanitizer_violation
                    {
                      Runtime.v_kind = `Write;
                      v_addr = addr;
                      v_len = len;
                      v_pc = 0;
                      v_instr = "";
                      v_instr_count = 0;
                      v_attribution = `Host;
                      v_detail = "flagged";
                    })));
      match Machine.run m ~fuel:100 with
      | exception Runtime.Sanitizer_violation v ->
          Alcotest.(check int) "the flagged store" (mb + 8) v.Runtime.v_addr;
          check_fault "sanitizer violation" m None
      | _ -> Alcotest.fail "the store should be flagged")

(* ------------------------------------------------------------------ *)
(* Load-path layout: one length pass, return addresses derived.        *)
(* ------------------------------------------------------------------ *)

module Mstate = Sfi_machine.Mstate
module Encode = Sfi_x86.Encode

(* The programs the load path sees: the fuzz corpus and every benchmark
   workload module, compiled under stock Wasm and under Segue. *)
let load_path_programs =
  lazy
    (let modules =
       List.init 40 (fun i ->
           (Sfi_fuzz.Fuzz.generate (Int64.of_int (0x5EED + i))).Sfi_fuzz.Fuzz.p_module)
       @ List.map (fun k -> Lazy.force k.Sfi_workloads.Kernel.wasm) Sfi_workloads.Spec2006.all
       @ List.map Sfi_faas.Workloads.module_of Sfi_faas.Workloads.all
     in
     List.concat_map
       (fun m ->
         List.map
           (fun strategy ->
             (Codegen.compile (Codegen.default_config ~strategy ()) m).Codegen.program)
           [ Strategy.wasm_default; Strategy.segue ])
       modules)

(* [install]'s single-pass offsets (n + 1 of them, ending at the code
   length) equal the encoder's own passes, their differences are the
   encoded lengths, and every call pushes [code_base] plus the
   next instruction's offset, through a one-slot range of the compiled
   engine and the reference [step] alike. A call may leave through a trap or an
   unresolved label after its push; only the pushed word is checked. *)
let test_load_layout_and_return_addresses () =
  let calls = ref 0 and call_regs = ref 0 in
  List.iter
    (fun program ->
      let space = Space.create () in
      (match Space.map space ~addr:mb ~len:Space.page_size ~prot:Prot.rw with
      | Ok () -> ()
      | Error e -> failwith e);
      let t = Mstate.create space in
      Sfi_machine.Translate.install t program;
      let l = Mstate.get_loaded t in
      let offsets = Encode.layout program and code_len = Encode.program_length program in
      let n = Array.length program and top = mb + Space.page_size in
      Alcotest.(check (array int)) "offsets" (Array.append offsets [| code_len |]) l.Mstate.offsets;
      Alcotest.(check int) "code length" code_len l.Mstate.code_len;
      Array.iteri
        (fun idx i ->
          Alcotest.(check int)
            (Printf.sprintf "length of instruction %d" idx)
            (Encode.instr_length i)
            (l.Mstate.offsets.(idx + 1) - l.Mstate.offsets.(idx)))
        program;
      Array.iteri
        (fun idx (i : X.instr) ->
          match i with
          | X.Call _ | X.Call_reg _ ->
              incr (match i with X.Call _ -> calls | _ -> call_regs);
              let expected =
                t.Mstate.code_base + if idx + 1 < n then offsets.(idx + 1) else code_len
              in
              List.iter
                (fun (engine, exec) ->
                  Space.write64 space (top - 8) 0L;
                  Mstate.set_reg t X.RSP (Int64.of_int top);
                  t.Mstate.pc <- idx;
                  (try exec t with _ -> ());
                  Alcotest.(check int64)
                    (Printf.sprintf "%s: return address of instruction %d" engine idx)
                    (Int64.of_int expected)
                    (Space.read64 space (top - 8)))
                [
                  ("compiled", fun t -> ignore (Sfi_machine.Tier.run t ~fuel:1));
                  ("reference", Sfi_machine.Decode.step);
                ]
          | _ -> ())
        program)
    (Lazy.force load_path_programs);
  Alcotest.(check bool)
    (Printf.sprintf "direct (%d) and indirect (%d) calls covered" !calls !call_regs)
    true
    (!calls > 0 && !call_regs > 0)

(* Indirect targets resolve to the lowest instruction index at their
   offset, and any other target traps at the branch. Each of the three
   indirect branches ([jmp r10], [call r10], [push r10; ret]) goes to
   [target m]: the labels "a" and "b" and the [mov] after them share one
   offset, and the program ends with a label at [code_len]. One slice
   runs through the branch on each engine; Lockstep then runs the whole
   program on both. *)
let test_indirect_target_resolution () =
  let tail =
    [ X.Trap X.Trap_unreachable; X.Label "a"; X.Label "b"; X.Mov (X.W64, X.Reg X.RAX, X.Imm 1L);
      X.Ret; X.Label "end" ]
  in
  let make branch target () =
    let space = Space.create () in
    (match Space.map space ~addr:mb ~len:Space.page_size ~prot:Prot.rw with
    | Ok () -> ()
    | Error e -> failwith e);
    let m = Machine.create space in
    Machine.load_program m (Array.of_list ((X.Label "entry" :: branch) @ tail));
    Machine.set_reg m X.RSP (Int64.of_int (mb + Space.page_size));
    Machine.set_reg m X.R10 (Int64.of_int (target m));
    m
  in
  let base m = fst (Machine.code_bounds m) in
  let code_end m = base m + snd (Machine.code_bounds m) in
  let cases =
    [
      ("label a", (fun m -> Machine.label_address m "a"), Some "a");
      ("label b, the offset of a and the mov", (fun m -> Machine.label_address m "b"), Some "a");
      ("code_len", code_end, Some "end");
      ("inside the mov", (fun m -> Machine.label_address m "b" + 1), None);
      ("inside the first instruction", (fun m -> base m + 1), None);
      ("before the code", (fun m -> base m - 8), None);
      ("one past code_len", (fun m -> code_end m + 1), None);
      ("far past the code", (fun m -> base m + (1 lsl 40)), None);
    ]
  in
  List.iter
    (fun (bname, branch) ->
      let at = List.length branch in
      List.iter
        (fun (tname, target, lands) ->
          let what = Printf.sprintf "%s to %s" bname tname in
          List.iter
            (fun engine ->
              let m = make branch target () in
              Machine.set_engine m engine;
              let seen = ref [] in
              Machine.set_sanitizer m
                (Some
                   (fun _ ~kind ~addr ~len:_ ->
                     if kind = Machine.San_branch then seen := addr :: !seen));
              Machine.start m ~entry:"entry";
              let status = Machine.run m ~fuel:(at + 1) in
              let ename = match engine with Machine.Compiled -> "compiled" | _ -> "reference" in
              let what = Printf.sprintf "%s (%s)" what ename in
              Alcotest.(check (list int)) (what ^ ": target seen") [ target m ] !seen;
              match lands with
              | Some label ->
                  Alcotest.(check bool) (what ^ ": runs on") true (status = Machine.Yielded);
                  Alcotest.(check int) (what ^ ": lands") (Machine.label_index m label) (Machine.pc m)
              | None ->
                  Alcotest.(check bool)
                    (what ^ ": traps out of bounds")
                    true
                    (status = Machine.Trapped X.Trap_out_of_bounds);
                  Alcotest.(check int) (what ^ ": at the branch") at (Machine.pc m))
            [ Machine.Reference; Machine.Compiled ];
          match Lockstep.run_pair ~make:(make branch target) ~entry:"entry" () with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "%s: engines diverged: %s" what
                (Format.asprintf "%a" Lockstep.pp_divergence d))
        cases)
    [
      ("jmp", [ X.Jmp_reg X.R10 ]);
      ("call", [ X.Call_reg X.R10 ]);
      ("ret", [ X.Push (X.Reg X.R10); X.Ret ]);
    ]

(* ------------------------------------------------------------------ *)
(* Page-cache differential against a per-access walk.                  *)
(* ------------------------------------------------------------------ *)

(* Lockstep and the engine differentials cannot see a bug in the memory
   hit path, because both engines share it. This compares the machine
   with a model that has no front cache: on every access it does the full
   [Tlb.lookup_slot]/[fill_slot] walk and asks [Space] for the verdict.
   A random sequence of loads and stores (1-16 bytes, many straddling a
   64-byte line or a page) runs in fuel slices over an 8-page data region
   plus the unmapped page after it; between slices the host changes the
   layout, the contents, the PKRU or flushes the TLB. After every slice
   the dTLB hits and misses, dcache misses, cycles, trap outcome,
   [last_fault_info] and a checksum of the loaded values must agree. *)

module Tlb = Sfi_vmem.Tlb
module Cost = Sfi_machine.Cost

let pd_data = 2 * mb
let pd_pages = 8
let pd_stack_top = mb + (2 * Space.page_size)

(* Only the memory system costs cycles, so the model can count them. *)
let pd_cost =
  {
    Cost.default with
    frontend_bytes_per_cycle = 0;
    alu_cycles = 0;
    lea_cycles = 0;
    load_cycles = 0;
    store_cycles = 0;
    mul_cycles = 0;
    div_cycles = 0;
    branch_cycles = 0;
    taken_branch_cycles = 0;
    indirect_branch_cycles = 0;
    call_ret_cycles = 0;
    vector_cycles = 0;
    wrsegbase_cycles = 0;
    wrsegbase_syscall_cycles = 0;
    wrpkru_cycles = 0;
    hostcall_cycles = 0;
  }

type pd_access = { p_addr : int; p_len : int; p_write : bool; p_value : int }

type pd_host =
  | Protect of int * int * Prot.t
  | Pkey_protect of int * int * Prot.t * int
  | Madvise of int * int
  | Unmap of int * int
  | Map of int * int
  | Set_pkru of Mpk.pkru
  | Flush_tlb
  | Pause (* a slice boundary and nothing else *)

type pd_event = Access of pd_access | Host of pd_host

(* Half the accesses return to the previous access's page, so pinned
   slots get reused. *)
let gen_pd_access rng ~near =
  let page = if Prng.bool rng then near else Prng.int rng (pd_pages + 1) in
  let p_len = pick rng [| 1; 2; 4; 8; 16 |] in
  let off =
    match Prng.int rng 3 with
    | 0 -> Prng.int rng Space.page_size
    | 1 -> Space.page_size - Prng.int_in rng 1 15 (* straddles the next page *)
    | _ -> (64 * Prng.int rng 64) + 64 - Prng.int_in rng 1 15 (* straddles a line *)
  in
  let limit = pd_data + ((pd_pages + 1) * Space.page_size) - p_len in
  let p_addr = min (pd_data + (page * Space.page_size) + off) limit in
  { p_addr; p_len; p_write = Prng.bool rng; p_value = Prng.int rng 0x40000000 }

(* Key 0 (the stack's) stays allowed; keys 1-3 get random AD/WD bits. *)
let gen_pd_host rng =
  let range () =
    let first = Prng.int rng pd_pages in
    (pd_data + (first * Space.page_size), Prng.int_in rng 1 (pd_pages - first) * Space.page_size)
  in
  let prot () = pick rng [| Prot.rw; Prot.rw; Prot.rw; Prot.r; Prot.none |] in
  match Prng.int rng 9 with
  | 0 ->
      let a, l = range () in
      Protect (a, l, prot ())
  | 1 ->
      let a, l = range () in
      Pkey_protect (a, l, prot (), Prng.int rng 4)
  | 2 ->
      let a, l = range () in
      Madvise (a, l)
  | 3 ->
      let a, l = range () in
      Unmap (a, l)
  | 4 | 5 ->
      let a, l = range () in
      Map (a, l)
  | 6 -> Set_pkru (if Prng.bool rng then Mpk.allow_all else Prng.int rng 64 lsl 2)
  | 7 -> Flush_tlb
  | _ -> Pause

let gen_pd_events rng =
  let near = ref 0 in
  List.init (Prng.int_in rng 40 120) (fun _ ->
      if Prng.int rng 5 = 0 then Host (gen_pd_host rng)
      else begin
        let a = gen_pd_access rng ~near:!near in
        near := (a.p_addr - pd_data) / Space.page_size;
        Access a
      end)

(* The code for one access, behind its label. A scalar load folds the
   zero-extended value into RDX; a 16-byte store first fills XMM2 with
   the value's low byte. *)
let pd_code i a =
  let m = X.mem ~disp:a.p_addr () in
  let label = X.Label (Printf.sprintf "a%d" i) in
  let fold = X.Alu (X.Xor, X.W64, X.Reg X.RDX, X.Reg X.RAX) in
  let v = Int64.of_int (a.p_value land ((1 lsl (8 * min a.p_len 4)) - 1)) in
  label
  ::
  (match (a.p_len, a.p_write) with
  | 1, false -> [ X.Movzx (X.W64, X.W8, X.RAX, X.Mem m); fold ]
  | 2, false -> [ X.Movzx (X.W64, X.W16, X.RAX, X.Mem m); fold ]
  | 4, false -> [ X.Mov (X.W32, X.Reg X.RAX, X.Mem m); fold ]
  | 8, false -> [ X.Mov (X.W64, X.Reg X.RAX, X.Mem m); fold ]
  | 16, false -> [ X.Vload (X.XMM 1, m) ]
  | 1, true -> [ X.Mov (X.W8, X.Mem m, X.Imm v) ]
  | 2, true -> [ X.Mov (X.W16, X.Mem m, X.Imm v) ]
  | 4, true -> [ X.Mov (X.W32, X.Mem m, X.Imm v) ]
  | 8, true -> [ X.Mov (X.W64, X.Mem m, X.Imm v) ]
  | _ -> [ X.Vdup8 (X.XMM 2, a.p_value land 0xFF); X.Vstore (m, X.XMM 2) ])

(* The model: its own TLB and dcache, driven by a full walk per access,
   and a shadow of the bytes stored (absent = zero). *)
type pd_model = {
  md_space : Space.t;
  md_tlb : Tlb.t;
  md_dcache : Tlb.t;
  mutable md_gen : int;
  mutable md_cycles : int;
  mutable md_fault : Machine.fault_info option;
  mutable md_pkru : Mpk.pkru;
  mutable md_rsp : int;
  mutable md_sum : int;
  md_bytes : (int, int) Hashtbl.t;
}

(* Walk [page]: true if the access may proceed. *)
let md_walk md ~page ~write =
  let mapped =
    Tlb.lookup_slot md.md_tlb ~page >= 0
    || begin
      md.md_cycles <- md.md_cycles + Tlb.walk_cost md.md_tlb;
      match Space.page_info md.md_space ~addr:(page * Space.page_size) with
      | None -> false
      | Some _ ->
          ignore (Tlb.fill_slot md.md_tlb ~page ~payload:0);
          true
    end
  in
  mapped
  && Space.check_access md.md_space ~pkru:md.md_pkru ~addr:(page * Space.page_size) ~len:1 ~write
     = Ok ()

let md_line md line =
  if Tlb.lookup_slot md.md_dcache ~page:line < 0 then begin
    md.md_cycles <- md.md_cycles + pd_cost.Cost.dcache_miss_cycles;
    ignore (Tlb.fill_slot md.md_dcache ~page:line ~payload:0)
  end

(* One access's checks; false (with the fault recorded) if it traps. *)
let md_check md ~addr ~len ~write =
  let g = Space.generation md.md_space in
  if g <> md.md_gen then begin
    Tlb.flush md.md_tlb;
    md.md_gen <- g
  end;
  let first = addr lsr 12 and last = (addr + len - 1) lsr 12 in
  if md_walk md ~page:first ~write && (last = first || md_walk md ~page:last ~write) then begin
    md_line md (addr lsr 6);
    if (addr + len - 1) lsr 6 <> addr lsr 6 then md_line md ((addr + len - 1) lsr 6);
    true
  end
  else begin
    md.md_fault <- Some { Machine.fault_addr = addr; fault_write = write };
    false
  end

let md_access md a =
  md_check md ~addr:a.p_addr ~len:a.p_len ~write:a.p_write
  && begin
    (if a.p_write then
       for k = 0 to a.p_len - 1 do
         let byte = if a.p_len = 16 then a.p_value else a.p_value lsr (8 * k) in
         Hashtbl.replace md.md_bytes (a.p_addr + k) (byte land 0xFF)
       done
     else if a.p_len <= 8 then
       let v = ref 0 in
       for k = a.p_len - 1 downto 0 do
         v := (!v lsl 8) lor Option.value ~default:0 (Hashtbl.find_opt md.md_bytes (a.p_addr + k))
       done;
       md.md_sum <- md.md_sum lxor !v);
    true
  end

let md_forget md addr len =
  for b = addr to addr + len - 1 do
    Hashtbl.remove md.md_bytes b
  done

(* [Machine.start]: clears the fault and pushes the halt sentinel. *)
let md_start md =
  md.md_fault <- None;
  md.md_rsp <- md.md_rsp - 8;
  if not (md_check md ~addr:md.md_rsp ~len:8 ~write:true) then failwith "stack push refused"

let pd_apply m md op =
  let space = Machine.space m in
  let forget addr len = function Ok () -> md_forget md addr len | Error _ -> () in
  match op with
  | Protect (addr, len, prot) -> ignore (Space.protect space ~addr ~len ~prot)
  | Pkey_protect (addr, len, prot, key) -> ignore (Space.pkey_protect space ~addr ~len ~prot ~key)
  | Madvise (addr, len) -> forget addr len (Space.madvise_dontneed space ~addr ~len)
  | Unmap (addr, len) -> forget addr len (Space.unmap space ~addr ~len)
  | Map (addr, len) ->
      (* Page by page, so the holes in a partly mapped range fill. *)
      for p = 0 to (len / Space.page_size) - 1 do
        let addr = addr + (p * Space.page_size) in
        ignore (Space.map space ~addr ~len:Space.page_size ~prot:Prot.rw)
      done
  | Set_pkru k ->
      Machine.set_pkru m k;
      md.md_pkru <- k
  | Flush_tlb ->
      Machine.flush_tlb m;
      Tlb.flush md.md_tlb;
      Tlb.flush md.md_dcache
  | Pause -> ()

let check_pcache_walk seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let tlb =
    pick rng
      [|
        Tlb.default_config;
        { Tlb.default_config with entries = 4; ways = 2 };
        { Tlb.default_config with entries = 8; ways = 1 };
      |]
  in
  let events = gen_pd_events rng in
  let accesses =
    Array.of_list (List.filter_map (function Access a -> Some a | Host _ -> None) events)
  in
  let n = Array.length accesses in
  let code = Array.mapi pd_code accesses in
  let program =
    Array.of_list (List.concat (Array.to_list code) @ [ X.Label (Printf.sprintf "a%d" n); X.Ret ])
  in
  List.iter
    (fun engine ->
      let space = Space.create () in
      let map addr len =
        match Space.map space ~addr ~len ~prot:Prot.rw with Ok () -> () | Error e -> failwith e
      in
      map mb (2 * Space.page_size);
      map pd_data (pd_pages * Space.page_size);
      let m = Machine.create ~cost:pd_cost ~tlb space in
      Machine.set_engine m engine;
      Machine.load_program m program;
      Machine.set_reg m X.RSP (Int64.of_int pd_stack_top);
      let md =
        {
          md_space = space;
          md_tlb = Tlb.create tlb;
          md_dcache = Tlb.create Mstate.default_dcache_config;
          md_gen = Space.generation space;
          md_cycles = 0;
          md_fault = None;
          md_pkru = Mpk.allow_all;
          md_rsp = pd_stack_top;
          md_sum = 0;
          md_bytes = Hashtbl.create 64;
        }
      in
      let fail fmt =
        Printf.ksprintf
          (fun s ->
            QCheck.Test.fail_reportf "seed %d, %s engine: %s" seed
              (match engine with Machine.Reference -> "reference" | Machine.Compiled -> "compiled")
              s)
          fmt
      in
      let agree what ~status ~expect =
        if status <> expect then fail "%s: unexpected status" what;
        let c = Machine.counters m in
        let check name mine model =
          if mine <> model then fail "%s: %s %d, model %d" what name mine model
        in
        check "dTLB hits" (Machine.dtlb_hits m) (Tlb.hits md.md_tlb);
        check "dTLB misses" (Machine.dtlb_misses m) (Tlb.misses md.md_tlb);
        check "dcache misses" (Machine.dcache_misses m) (Tlb.misses md.md_dcache);
        check "cycles" c.Machine.cycles md.md_cycles;
        check "load checksum" (Int64.to_int (Machine.get_reg m X.RDX)) md.md_sum;
        if Machine.last_fault_info m <> md.md_fault then fail "%s: last_fault_info differs" what
      in
      (* Run accesses [pos, stop) in one fuel slice, resuming after each
         trap at the next access's label. *)
      let rec run_slice pos stop =
        if pos < stop then begin
          let fuel = ref 0 in
          for i = pos to stop - 1 do
            fuel := !fuel + List.length code.(i)
          done;
          let status = Machine.run m ~fuel:!fuel in
          let rec model i =
            if i = stop then None else if md_access md accesses.(i) then model (i + 1) else Some i
          in
          match model pos with
          | None -> agree (Printf.sprintf "slice [%d, %d)" pos stop) ~status ~expect:Machine.Yielded
          | Some k ->
              agree (Printf.sprintf "access %d" k) ~status
                ~expect:(Machine.Trapped X.Trap_out_of_bounds);
              Machine.start m ~entry:(Printf.sprintf "a%d" (k + 1));
              md_start md;
              run_slice (k + 1) stop
        end
      in
      Machine.start m ~entry:"a0";
      md_start md;
      let last, pos =
        List.fold_left
          (fun (last, pos) -> function
            | Access _ -> (last, pos + 1)
            | Host op ->
                run_slice last pos;
                pd_apply m md op;
                (pos, pos))
          (0, 0) events
      in
      run_slice last pos;
      (* The final label and [Ret], which pops the halt sentinel. *)
      let status = Machine.run m ~fuel:2 in
      let popped = md_check md ~addr:md.md_rsp ~len:8 ~write:false in
      agree "return" ~status ~expect:(if popped then Machine.Halted else Machine.Yielded))
    [ Machine.Reference; Machine.Compiled ];
  true

let qcheck_pcache_walk =
  QCheck.Test.make ~count:150 ~name:"page cache = per-access TLB walk"
    QCheck.(int_range 0 99999)
    check_pcache_walk

let case name f = Alcotest.test_case name `Quick f

let tests =
  [
    case "lockstep: control flow" test_lockstep_control_flow;
    case "lockstep: indirect jumps and calls" test_lockstep_indirect;
    case "lockstep: memory, segments, vectors" test_lockstep_memory_and_segments;
    case "lockstep: every trap kind" test_lockstep_traps;
    case "lockstep: pkru and hostcalls" test_lockstep_pkru_and_hostcall;
    QCheck_alcotest.to_alcotest qcheck_differential;
    QCheck_alcotest.to_alcotest qcheck_shapes;
    case "page cache: mprotect invalidates" test_pcache_prot_change;
    case "page cache: set_pkru invalidates" test_pcache_pkru_write;
    case "page cache: unmap invalidates" test_pcache_unmap;
    case "page cache: madvise drops cached bytes" test_pcache_madvise;
    case "page cache: host writes visible" test_pcache_host_write_visible;
    QCheck_alcotest.to_alcotest qcheck_pcache_walk;
    case "fault: straddling store names the access start" test_fault_straddle_second_page;
    case "fault: pinned verdict names its own access" test_fault_pinned_verdict;
    case "fault: sanitizer violation records none" test_fault_sanitizer_leaves_none;
    case "load path: layout and return addresses" test_load_layout_and_return_addresses;
    case "indirect targets: lowest index at the offset, else a trap" test_indirect_target_resolution;
  ]
