(* Tests for the x86-64 ISA model: encoding lengths (the substance behind
   Table 2 and the frontend cost model) and AST helpers. *)

module X = Sfi_x86.Ast
module Encode = Sfi_x86.Encode

let len i = Encode.instr_length i

let test_basic_lengths () =
  (* A plain 32-bit register move: opcode + modrm. *)
  Alcotest.(check int) "mov eax, ecx" 2 (len (X.Mov (X.W32, X.Reg X.RAX, X.Reg X.RCX)));
  (* 64-bit adds a REX prefix. *)
  Alcotest.(check int) "mov rax, rcx" 3 (len (X.Mov (X.W64, X.Reg X.RAX, X.Reg X.RCX)));
  (* Extended registers force REX even at 32 bits. *)
  Alcotest.(check int) "mov r10d, ecx" 3 (len (X.Mov (X.W32, X.Reg X.R10, X.Reg X.RCX)));
  Alcotest.(check int) "ret" 1 (len X.Ret);
  Alcotest.(check int) "ud2" 2 (len (X.Trap X.Trap_unreachable));
  Alcotest.(check int) "wrpkru" 3 (len X.Wrpkru);
  Alcotest.(check int) "wrgsbase" 5 (len (X.Wrgsbase X.RAX));
  Alcotest.(check int) "jcc rel32" 6 (len (X.Jcc (X.E, "x")));
  Alcotest.(check int) "label is free" 0 (len (X.Label "x"))

(* The encoding story behind Figure 1 and the astar outlier: the classic
   lowering needs lea + mov; Segue's single mov carries two extra prefix
   bytes but replaces both instructions. *)
let test_segue_encoding_tradeoff () =
  let base_pattern =
    [
      X.Lea (X.W32, X.RDI, X.mem ~base:X.RCX ~index:(X.RDX, X.S4) ~disp:8 ());
      X.Mov (X.W64, X.Reg X.R11, X.Mem (X.mem ~base:X.R14 ~index:(X.RDI, X.S1) ()));
    ]
  in
  let segue_pattern =
    [
      X.Mov
        ( X.W64,
          X.Reg X.R11,
          X.Mem (X.mem ~seg:X.GS ~base:X.RCX ~index:(X.RDX, X.S4) ~disp:8 ~addr32:true ()) );
    ]
  in
  let total p = List.fold_left (fun acc i -> acc + len i) 0 p in
  Alcotest.(check bool) "segue saves bytes overall" true (total segue_pattern < total base_pattern);
  (* ...but the single memory instruction itself got longer. *)
  let plain_mov = X.Mov (X.W64, X.Reg X.R11, X.Mem (X.mem ~base:X.RCX ~index:(X.RDX, X.S4) ~disp:8 ())) in
  Alcotest.(check int) "seg + addr32 prefixes cost 2 bytes" (len plain_mov + 2)
    (total segue_pattern)

let test_native_base_is_free () =
  let plain = X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~base:X.RCX ~disp:8 ())) in
  let native = X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~base:X.RCX ~disp:8 ~native_base:true ()))
  in
  Alcotest.(check int) "native_base adds no prefix bytes" (len plain) (len native)

let test_disp_and_imm_widths () =
  let small = X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~base:X.RCX ~disp:16 ())) in
  let large = X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~base:X.RCX ~disp:4096 ())) in
  Alcotest.(check int) "disp8 vs disp32" 3 (len large - len small);
  let alu8 = X.Alu (X.Add, X.W32, X.Reg X.RAX, X.Imm 5L) in
  let alu32 = X.Alu (X.Add, X.W32, X.Reg X.RAX, X.Imm 500L) in
  Alcotest.(check int) "imm8 vs imm32 in alu" 3 (len alu32 - len alu8);
  let movabs = X.Mov (X.W64, X.Reg X.RAX, X.Imm 0x1_0000_0000L) in
  let mov32 = X.Mov (X.W64, X.Reg X.RAX, X.Imm 5L) in
  Alcotest.(check int) "movabs imm64" 4 (len movabs - len mov32);
  (* RBP-based addressing always needs a displacement byte. *)
  let rbp0 = X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBP ())) in
  let rcx0 = X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RCX ())) in
  Alcotest.(check int) "rbp needs disp8" 1 (len rbp0 - len rcx0);
  (* RSP/R12 bases need a SIB byte. *)
  let rsp0 = X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RSP ())) in
  Alcotest.(check int) "rsp needs sib" 1 (len rsp0 - len rcx0)

let test_layout () =
  let p = [| X.Label "f"; X.Mov (X.W32, X.Reg X.RAX, X.Imm 1L); X.Ret; X.Label "g"; X.Nop |] in
  let offsets = Encode.layout p in
  Alcotest.(check int) "label at 0" 0 offsets.(0);
  Alcotest.(check int) "mov at 0 too" 0 offsets.(1);
  Alcotest.(check int) "ret after mov" (len p.(1)) offsets.(2);
  Alcotest.(check int) "labels share next offset" offsets.(4) offsets.(3);
  Alcotest.(check int) "total" (Encode.program_length p) (offsets.(4) + len p.(4))

let all_conds = [ X.E; X.NE; X.L; X.LE; X.G; X.GE; X.B; X.BE; X.A; X.AE; X.S; X.NS ]

let test_negate_cond () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "negation is an involution" true
        (X.negate_cond (X.negate_cond c) = c);
      Alcotest.(check bool) "negation differs" true (X.negate_cond c <> c))
    all_conds

let test_printer () =
  let check_pp expected instr =
    Alcotest.(check string) expected expected (Format.asprintf "%a" X.pp_instr instr)
  in
  (* Figure 1c, line 14. *)
  check_pp "mov r11, gs:[ecx + edx*4 + 0x8]"
    (X.Mov
       ( X.W64,
         X.Reg X.R11,
         X.Mem (X.mem ~seg:X.GS ~base:X.RCX ~index:(X.RDX, X.S4) ~disp:8 ~addr32:true ()) ));
  (* Figure 1b, line 12. *)
  check_pp "lea edi, [ecx + edx*4 + 0x8]"
    (X.Lea (X.W32, X.RDI, X.mem ~base:X.RCX ~index:(X.RDX, X.S4) ~disp:8 ~addr32:true ()));
  check_pp "wrgsbase rax" (X.Wrgsbase X.RAX);
  check_pp "idiv dword ptr [rax]" (X.Div (X.W32, true, X.Mem (X.mem ~base:X.RAX ())))

let test_helpers () =
  Alcotest.(check bool) "uses_segment" true
    (X.uses_segment (X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~seg:X.GS ~base:X.RCX ()))));
  Alcotest.(check bool) "no segment" false
    (X.uses_segment (X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~base:X.RCX ()))));
  Alcotest.(check int) "mem_operands counts" 1
    (List.length (X.mem_operands (X.Push (X.Mem (X.mem ~base:X.RAX ())))));
  Alcotest.(check int) "lea has no memory access" 0
    (List.length (X.mem_operands (X.Lea (X.W64, X.RAX, X.mem ~base:X.RCX ()))));
  List.iter
    (fun r -> Alcotest.(check bool) "gpr index roundtrip" true (X.gpr_of_index (X.gpr_index r) = r))
    X.all_gprs

let prop_lengths_positive =
  QCheck.Test.make ~name:"every non-label instruction encodes to >= 1 byte" ~count:200
    (QCheck.make
       (QCheck.Gen.oneofl
          [
            X.Nop; X.Ret; X.Wrpkru; X.Rdpkru; X.Cqo X.W64;
            X.Mov (X.W64, X.Reg X.R13, X.Imm 123456789L);
            X.Alu (X.Xor, X.W32, X.Reg X.RAX, X.Reg X.RAX);
            X.Vload (X.XMM 0, X.mem ~base:X.RSI ());
            X.Hostcall 3; X.Jmp "x"; X.Push (X.Imm 1L); X.Pop X.R9;
          ]))
    (fun i -> Encode.instr_length i >= 1)

(* The encoder's length function as it was written before it was made
   allocation-free (operands gathered into lists), kept as the reference
   the current one must agree with. *)
module Reference_length = struct
  open X

  let fits_int8 n = n >= -128 && n <= 127
  let fits_int8_64 n = Int64.compare n (-128L) >= 0 && Int64.compare n 127L <= 0
  let fits_int32_64 n = Int64.compare n (-2147483648L) >= 0 && Int64.compare n 2147483647L <= 0
  let is_extended r = gpr_index r >= 8

  let mem_prefixes (m : mem) =
    if m.native_base then 0 else (if m.seg <> None then 1 else 0) + if m.addr32 then 1 else 0

  let modrm_sib_disp (m : mem) =
    let needs_sib =
      m.index <> None || (match m.base with Some (RSP | R12) -> true | _ -> false) || m.base = None
    in
    let disp_bytes =
      match m.base with
      | None -> 4
      | Some (RBP | R13) -> if fits_int8 m.disp then 1 else 4
      | Some _ -> if m.disp = 0 then 0 else if fits_int8 m.disp then 1 else 4
    in
    1 + (if needs_sib then 1 else 0) + disp_bytes

  let mem_uses_extended (m : mem) =
    (match m.base with Some r -> is_extended r | None -> false)
    || match m.index with Some (r, _) -> is_extended r | None -> false

  let rex_needed w regs mems =
    w = W64 || List.exists is_extended regs || List.exists mem_uses_extended mems

  let operand_size_prefix w = if w = W16 then 1 else 0

  let rm_form w dst src ~imm_is_8_ok =
    let regs = List.filter_map (function Reg r -> Some r | _ -> None) [ dst; src ] in
    let mems = List.filter_map (function Mem m -> Some m | _ -> None) [ dst; src ] in
    let prefix = List.fold_left (fun acc m -> acc + mem_prefixes m) 0 mems in
    let rex = if rex_needed w regs mems then 1 else 0 in
    let body = match mems with m :: _ -> modrm_sib_disp m | [] -> 1 in
    let imm =
      match src with
      | Imm i ->
          if w = W8 then 1
          else if imm_is_8_ok && fits_int8_64 i then 1
          else if w = W64 && not (fits_int32_64 i) then 8
          else 4
      | Reg _ | Mem _ -> 0
    in
    operand_size_prefix w + prefix + rex + 1 + body + imm

  let instr_length (i : instr) =
    match i with
    | Label _ -> 0
    | Mov (w, dst, src) -> rm_form w dst src ~imm_is_8_ok:false
    | Movzx (dw, _, dst, src) | Movsx (dw, _, dst, src) ->
        1 + rm_form dw (Reg dst) src ~imm_is_8_ok:false
    | Lea (w, dst, m) ->
        let rex = if rex_needed w [ dst ] [ m ] then 1 else 0 in
        operand_size_prefix w + mem_prefixes m + rex + 1 + modrm_sib_disp m
    | Alu (_, w, dst, src) | Cmp (w, dst, src) -> rm_form w dst src ~imm_is_8_ok:true
    | Test (w, dst, src) -> rm_form w dst src ~imm_is_8_ok:false
    | Shift (_, w, dst, count) -> (
        let base = rm_form w dst (Reg RCX) ~imm_is_8_ok:false in
        match count with Count_imm 1 | Count_cl -> base | Count_imm _ -> base + 1)
    | Imul (w, dst, src) -> 1 + rm_form w (Reg dst) src ~imm_is_8_ok:false
    | Bitcnt (_, w, dst, src) -> 2 + rm_form w (Reg dst) src ~imm_is_8_ok:false
    | Div (w, _, src) -> rm_form w src (Reg RAX) ~imm_is_8_ok:false
    | Cqo w -> if w = W64 then 2 else 1
    | Neg (w, op) | Not (w, op) -> rm_form w op (Reg RAX) ~imm_is_8_ok:false
    | Setcc (_, r) -> (if is_extended r then 4 else 3) + 3
    | Cmovcc (_, w, dst, src) -> 1 + rm_form w (Reg dst) src ~imm_is_8_ok:false
    | Jmp _ -> 5
    | Jcc _ -> 6
    | Jmp_reg r | Call_reg r -> if is_extended r then 3 else 2
    | Call _ -> 5
    | Ret -> 1
    | Push (Reg r) | Pop r -> if is_extended r then 2 else 1
    | Push (Imm i) -> if fits_int8_64 i then 2 else 5
    | Push (Mem m) -> mem_prefixes m + 1 + modrm_sib_disp m
    | Wrfsbase _ | Wrgsbase _ | Rdfsbase _ | Rdgsbase _ -> 5
    | Wrpkru | Rdpkru -> 3
    | Vload (_, m) | Vstore (m, _) -> 3 + mem_prefixes m + 1 + modrm_sib_disp m
    | Vzero _ -> 4
    | Vdup8 (_, _) -> 6
    | Hostcall _ -> 7
    | Trap _ -> 2
    | Nop -> 1
end

(* Random instructions of every constructor, with operands at the
   encoding's edges: extended registers, RSP/R12/RBP/R13 bases, absent
   bases, 8/32-bit displacement and immediate boundaries, prefixes. *)
let gen_instr =
  let open QCheck.Gen in
  let gpr = oneofl X.all_gprs in
  let width = oneofl X.[ W8; W16; W32; W64 ] in
  let imm =
    oneof
      [
        oneofl [ 0L; 1L; -128L; 127L; 128L; -129L; 0x7FFFFFFFL; -0x80000000L; 0x80000000L; Int64.min_int ];
        map Int64.of_int int;
      ]
  in
  let mem =
    let* seg = opt (oneofl X.[ FS; GS ]) and* base = opt gpr and* index = opt (pair gpr (oneofl X.[ S1; S2; S4; S8 ])) in
    let* disp = oneof [ oneofl [ 0; 1; -128; 127; 128; -129; 4096 ]; int_range (-100000) 100000 ] in
    let* addr32 = bool and* native_base = bool in
    return (X.mem ?seg ?base ?index ~disp ~addr32 ~native_base ())
  in
  let operand = oneof [ map (fun r -> X.Reg r) gpr; map (fun i -> X.Imm i) imm; map (fun m -> X.Mem m) mem ] in
  let cond = oneofl all_conds in
  oneof
    [
      map3 (fun w d s -> X.Mov (w, d, s)) width operand operand;
      map3 (fun (dw, sw) d s -> X.Movzx (dw, sw, d, s)) (pair width width) gpr operand;
      map3 (fun (dw, sw) d s -> X.Movsx (dw, sw, d, s)) (pair width width) gpr operand;
      map3 (fun w d m -> X.Lea (w, d, m)) width gpr mem;
      map3 (fun (op, w) d s -> X.Alu (op, w, d, s)) (pair (oneofl X.[ Add; Sub; And; Or; Xor ]) width) operand operand;
      map3
        (fun (op, w) d c -> X.Shift (op, w, d, c))
        (pair (oneofl X.[ Shl; Shr; Sar; Rol; Ror ]) width)
        operand
        (oneof [ return X.Count_cl; map (fun n -> X.Count_imm n) (int_range 0 63) ]);
      map3 (fun w d s -> X.Imul (w, d, s)) width gpr operand;
      map3 (fun (k, w) d s -> X.Bitcnt (k, w, d, s)) (pair (oneofl X.[ Lzcnt; Tzcnt; Popcnt ]) width) gpr operand;
      map3 (fun w signed s -> X.Div (w, signed, s)) width bool operand;
      map (fun w -> X.Cqo w) width;
      map2 (fun w o -> X.Neg (w, o)) width operand;
      map2 (fun w o -> X.Not (w, o)) width operand;
      map3 (fun w a b -> X.Cmp (w, a, b)) width operand operand;
      map3 (fun w a b -> X.Test (w, a, b)) width operand operand;
      map2 (fun c r -> X.Setcc (c, r)) cond gpr;
      map3 (fun (c, w) d s -> X.Cmovcc (c, w, d, s)) (pair cond width) gpr operand;
      map (fun c -> X.Jcc (c, "l")) cond;
      map (fun r -> X.Jmp_reg r) gpr;
      map (fun r -> X.Call_reg r) gpr;
      map (fun o -> X.Push o) operand;
      map (fun r -> X.Pop r) gpr;
      map (fun r -> X.Wrgsbase r) gpr;
      map (fun r -> X.Rdfsbase r) gpr;
      map2 (fun v m -> X.Vload (X.XMM v, m)) (int_range 0 15) mem;
      map2 (fun m v -> X.Vstore (m, X.XMM v)) mem (int_range 0 15);
      oneofl
        X.[ Label "l"; Jmp "l"; Call "l"; Ret; Wrpkru; Rdpkru; Vzero (XMM 3); Vdup8 (XMM 1, 7); Hostcall 2;
            Trap Trap_unreachable; Nop ];
    ]

let prop_length_matches_reference =
  QCheck.Test.make ~name:"instr_length = the list-based reference model" ~count:2000
    (QCheck.make ~print:(Format.asprintf "%a" X.pp_instr) gen_instr)
    (fun i -> Encode.instr_length i = Reference_length.instr_length i)

(* Measuring a program allocates nothing per instruction. *)
let test_length_allocation_free () =
  let rand = Random.State.make [| 7 |] in
  let program = Array.init 500 (fun _ -> gen_instr rand) in
  let total = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 20 do
    total := !total + Encode.program_length program
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "same total as the reference" (20 * Array.fold_left (fun a i -> a + Reference_length.instr_length i) 0 program) !total;
  if words > 16.0 then Alcotest.failf "%.0f minor words measuring 10,000 instructions" words

let tests =
  [
    Harness.case "basic lengths" test_basic_lengths;
    Harness.case "segue encoding tradeoff" test_segue_encoding_tradeoff;
    Harness.case "native_base free" test_native_base_is_free;
    Harness.case "disp and imm widths" test_disp_and_imm_widths;
    Harness.case "layout" test_layout;
    Harness.case "negate_cond" test_negate_cond;
    Harness.case "printer" test_printer;
    Harness.case "helpers" test_helpers;
    QCheck_alcotest.to_alcotest prop_lengths_positive;
    QCheck_alcotest.to_alcotest prop_length_matches_reference;
    Harness.case "length allocates nothing" test_length_allocation_free;
  ]
