(* Decode/execute primitives shared by every engine: registers, effective
   addresses, TLB/MPK-checked memory access with the page/dcache fast
   paths, flags and the pure value helpers; the per-op bodies the
   compiled engine runs ([compile_body]); and [step], the AST-matching
   reference interpreter that defines observable behavior. The compiled
   engine's blocks ([Tier]) are built from [compile_body] and must
   reproduce [step] bit-identically.

   Hot-path rule: no [int64] crosses a closure or module boundary while an
   instruction executes. dune's default profile compiles with [-opaque],
   so no call into another module inlines, and an [int64] passed to or
   returned from a call that does not inline is boxed on the minor heap.
   Every helper that takes or returns an [int64] is therefore [@inline]
   and lives in this unit, next to the bodies that use it; operands are
   resolved once, at translate time, into plain descriptors ([opnd]).
   Bodies let-bind an [int64] before passing it to a helper: an inlined
   argument stays unboxed only when it is a let-bound variable or a fresh
   arithmetic result.

   A memory access's hit path leaves no unit: the pinned dTLB and dcache
   slots are checked and touched on [Tlb.t]'s fields, the space's
   counters are read from its epoch cell, and no handler is installed
   (see "Memory access" below). Only a miss calls into [Tlb] or [Space],
   with arguments and results of type [int], [bool], [unit] or
   [Bytes.t]. *)

open Sfi_x86.Ast
open Mstate
module Space = Sfi_vmem.Space
module Tlb = Sfi_vmem.Tlb
module Mpk = Sfi_vmem.Mpk

(* --- Registers --- *)

let rax = gpr_index RAX
let rcx = gpr_index RCX
let rdx = gpr_index RDX
let rsp = gpr_index RSP
(* Unchecked: every index is a [gpr_index], so in bounds of the 128-byte
   file. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] reg_get t i = get64u t.regs (i lsl 3)
let[@inline] reg_set t i v = set64u t.regs (i lsl 3) v

let[@inline] read_reg_w t w i =
  let v = reg_get t i in
  match w with
  | W64 -> v
  | W32 -> Int64.logand v 0xFFFFFFFFL
  | W16 -> Int64.logand v 0xFFFFL
  | W8 -> Int64.logand v 0xFFL

(* x86 semantics: 32-bit writes zero-extend; 8/16-bit writes preserve the
   upper bits of the destination. *)
let[@inline] write_reg_w t w i v =
  match w with
  | W64 -> reg_set t i v
  | W32 -> reg_set t i (Int64.logand v 0xFFFFFFFFL)
  | W16 ->
      reg_set t i (Int64.logor (Int64.logand (reg_get t i) (-0x10000L)) (Int64.logand v 0xFFFFL))
  | W8 -> reg_set t i (Int64.logor (Int64.logand (reg_get t i) (-0x100L)) (Int64.logand v 0xFFL))

(* --- Effective addresses --- *)

let addr_mask_47 = (1 lsl 47) - 1

let effective_address t (m : mem) =
  let base = match m.base with Some r -> reg_get t (gpr_index r) | None -> 0L in
  let index =
    match m.index with
    | Some (r, s) -> Int64.mul (reg_get t (gpr_index r)) (Int64.of_int (scale_factor s))
    | None -> 0L
  in
  let sum = Int64.add (Int64.add base index) (Int64.of_int m.disp) in
  let sum = if m.addr32 && not m.native_base then Int64.logand sum 0xFFFFFFFFL else sum in
  let seg =
    if m.native_base then t.gs_base
    else match m.seg with Some s -> get_seg_base t s | None -> 0
  in
  Int64.to_int (Int64.add (Int64.of_int seg) sum) land addr_mask_47

(* Lea computes the address expression but never adds the segment base and
   never touches memory. *)
let lea_value t (m : mem) =
  let base = match m.base with Some r -> reg_get t (gpr_index r) | None -> 0L in
  let index =
    match m.index with
    | Some (r, s) -> Int64.mul (reg_get t (gpr_index r)) (Int64.of_int (scale_factor s))
    | None -> 0L
  in
  let sum = Int64.add (Int64.add base index) (Int64.of_int m.disp) in
  if m.addr32 then Int64.logand sum 0xFFFFFFFFL else sum

(* --- Memory access with TLB and MPK ---

   The hit path — an access whose page is pinned in the page cache and
   whose lines are pinned in the line cache — is straight-line code in
   this unit: the space's counters are field reads of its epoch cell, and
   the pinned dTLB and dcache slots are checked and touched on [Tlb.t]'s
   fields ([tlb_holds], [tlb_touch]). Only a miss calls into [Tlb] or
   [Space], and no exception handler is installed: a refused access
   records its fault at the raise site ([fault]). *)

(* TLB payload: bits 0-1 = read/write permission, bits 3+ = pkey. *)
let payload_of prot key =
  (if (prot : Sfi_vmem.Prot.t).read then 1 else 0)
  lor (if prot.Sfi_vmem.Prot.write then 2 else 0)
  lor (key lsl 3)

(* The verdict a TLB payload gives an access: protection bits AND the
   current PKRU. *)
let allows t payload ~write =
  payload land (if write then 2 else 1) <> 0 && Mpk.allows t.pkru ~key:(payload lsr 3) ~write

(* [Tlb.holds] and [Tlb.touch] on the record, so the hit path inlines.
   They must stay exactly what those functions do. *)
let[@inline] tlb_holds (c : Tlb.t) slot page = Array.unsafe_get c.tags slot = page

let[@inline] tlb_touch (c : Tlb.t) slot =
  let clock = c.clock + 1 in
  c.clock <- clock;
  c.hits <- c.hits + 1;
  Array.unsafe_set c.stamps slot clock

(* Refuse the access starting at [addr]: record it for
   [last_fault_info] and trap. Every architectural refusal raises here —
   a pinned verdict, an unmapped page, a refused TLB payload — so the
   fault names the access start even when the second page of a
   straddling access refused. *)
let fault t ~addr ~write =
  t.last_fault <- Some { fault_addr = addr; fault_write = write };
  raise (Trap_exn Trap_out_of_bounds)

(* The layout changed since the last access: shoot down the dTLB and
   every pin into it. *)
let resync_generation t g =
  Tlb.flush t.tlb;
  t.space_generation <- g;
  invalidate_pcache t

let[@inline] check_tlb_generation t =
  let g = t.epochs.Space.generation in
  if g <> t.space_generation then resync_generation t g

(* Full TLB walk for [page], trapping unless the access at [addr] is
   allowed; counter effects identical to the pre-cache interpreter.
   Returns the TLB slot, so the page cache can pin it and read its
   payload. *)
let check_page_slow t ~page ~addr ~write =
  let slot = Tlb.lookup_slot t.tlb ~page in
  let slot =
    if slot >= 0 then slot
    else begin
      t.counters.cycles <- t.counters.cycles + Tlb.walk_cost t.tlb;
      let v = Space.vma_at t.space (page * Space.page_size) in
      if v == Space.unmapped then fault t ~addr ~write
      else Tlb.fill_slot t.tlb ~page ~payload:(payload_of v.Space.prot v.Space.pkey)
    end
  in
  if not (allows t (Tlb.payload t.tlb ~slot) ~write) then fault t ~addr ~write;
  slot

(* Page-cache miss on [page]: walk, then pin the slot in entry [idx] with
   both verdicts baked in. *)
let pcache_fill t idx ~page ~addr ~write =
  let slot = check_page_slow t ~page ~addr ~write in
  let payload = Tlb.payload t.tlb ~slot in
  Array.unsafe_set t.pc_tag idx page;
  Array.unsafe_set t.pc_slot idx slot;
  Array.unsafe_set t.pc_read_ok idx (allows t payload ~write:false);
  Array.unsafe_set t.pc_write_ok idx (allows t payload ~write:true);
  Array.unsafe_set t.pc_bepoch idx (-1)

(* Line-cache miss on [line]: the full dcache lookup (and fill), then pin
   the slot in entry [idx]. *)
let dcache_miss t idx line =
  let slot = Tlb.lookup_slot t.dcache ~page:line in
  Array.unsafe_set t.lc_slot idx
    (if slot >= 0 then slot
     else begin
       t.counters.cycles <- t.counters.cycles + t.cost.Cost.dcache_miss_cycles;
       Tlb.fill_slot t.dcache ~page:line ~payload:0
     end);
  Array.unsafe_set t.lc_tag idx line

let[@inline] touch_dcache t addr =
  let line = addr lsr 6 in
  let idx = line land lc_mask in
  let slot = Array.unsafe_get t.lc_slot idx in
  if Array.unsafe_get t.lc_tag idx = line && tlb_holds t.dcache slot line then
    tlb_touch t.dcache slot
  else dcache_miss t idx line

let check_access t ~addr ~len ~write =
  check_tlb_generation t;
  let first = addr lsr 12 and last = (addr + len - 1) lsr 12 in
  let idx = first land pc_mask in
  let slot = Array.unsafe_get t.pc_slot idx in
  if Array.unsafe_get t.pc_tag idx = first && tlb_holds t.tlb slot first then begin
    (* Repeat access to a cached page: model the TLB hit without the set
       scan, then apply the pre-baked verdict. *)
    tlb_touch t.tlb slot;
    if not (if write then Array.unsafe_get t.pc_write_ok idx else Array.unsafe_get t.pc_read_ok idx)
    then fault t ~addr ~write
  end
  else pcache_fill t idx ~page:first ~addr ~write;
  if last <> first then ignore (check_page_slow t ~page:last ~addr ~write);
  touch_dcache t addr;
  if (addr + len - 1) lsr 6 <> addr lsr 6 then touch_dcache t (addr + len - 1);
  (* Every architectural check passed: give the sanitizer (if armed) a
     chance to flag an access that is legal for the hardware but illegal
     for the owning sandbox. An access that trapped above never reaches
     this point — it is already contained and attributed precisely. *)
  match t.sanitizer with
  | None -> ()
  | Some f -> f t ~kind:(if write then San_write else San_read) ~addr ~len

(* Backing bytes of a cached page for reading/writing. Only call when
   [check_access] just succeeded for an access contained in [page] — that
   guarantees the entry's tag is [page], so a live byte epoch always
   describes this page's backing store. The data epoch guards against the
   store changing identity underneath us (fresh page materialization,
   madvise, unmap). *)
let ro_bytes t page =
  let idx = page land pc_mask in
  let epoch = t.epochs.Space.data_epoch in
  if Array.unsafe_get t.pc_bepoch idx = epoch then Array.unsafe_get t.pc_bytes idx
  else begin
    let b = Space.page_for_read t.space ~page in
    Array.unsafe_set t.pc_bytes idx b;
    Array.unsafe_set t.pc_bwritable idx false;
    Array.unsafe_set t.pc_bepoch idx epoch;
    b
  end

let rw_bytes t page =
  let idx = page land pc_mask in
  if Array.unsafe_get t.pc_bepoch idx = t.epochs.Space.data_epoch
     && Array.unsafe_get t.pc_bwritable idx
  then Array.unsafe_get t.pc_bytes idx
  else begin
    let b = Space.page_for_write t.space ~page in
    Array.unsafe_set t.pc_bytes idx b;
    Array.unsafe_set t.pc_bwritable idx true;
    (* Read the epoch after materializing: allocation bumps it. *)
    Array.unsafe_set t.pc_bepoch idx t.epochs.Space.data_epoch;
    b
  end

let page_mask = Space.page_size - 1

(* [Sfi_x86.Ast.width_bytes], restated so it inlines: every load and
   store asks it. *)
let[@inline] width_bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

let[@inline] load_mem t w addr =
  let len = width_bytes w in
  check_access t ~addr ~len ~write:false;
  t.counters.loads <- t.counters.loads + 1;
  t.counters.cycles <- t.counters.cycles + t.cost.Cost.load_cycles;
  let off = addr land page_mask in
  if off + len <= Space.page_size then
    let b = ro_bytes t (addr lsr 12) in
    match w with
    | W8 -> Int64.of_int (Char.code (Bytes.get b off))
    | W16 -> Int64.of_int (Bytes.get_uint16_le b off)
    | W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xFFFFFFFFL
    | W64 -> Bytes.get_int64_le b off
  else
    match w with
    | W8 -> Int64.of_int (Space.read8 t.space addr)
    | W16 -> Int64.of_int (Space.read16 t.space addr)
    | W32 -> Int64.logand (Int64.of_int32 (Space.read32 t.space addr)) 0xFFFFFFFFL
    | W64 -> Space.read64 t.space addr

let[@inline] store_mem t w addr v =
  let len = width_bytes w in
  check_access t ~addr ~len ~write:true;
  t.counters.stores <- t.counters.stores + 1;
  t.counters.cycles <- t.counters.cycles + t.cost.Cost.store_cycles;
  let off = addr land page_mask in
  if off + len <= Space.page_size then begin
    let b = rw_bytes t (addr lsr 12) in
    match w with
    | W8 -> Bytes.set b off (Char.unsafe_chr (Int64.to_int v land 0xFF))
    | W16 -> Bytes.set_uint16_le b off (Int64.to_int v land 0xFFFF)
    | W32 -> Bytes.set_int32_le b off (Int64.to_int32 v)
    | W64 -> Bytes.set_int64_le b off v
  end
  else
    match w with
    | W8 -> Space.write8 t.space addr (Int64.to_int v land 0xFF)
    | W16 -> Space.write16 t.space addr (Int64.to_int v land 0xFFFF)
    | W32 -> Space.write32 t.space addr (Int64.to_int32 v)
    | W64 -> Space.write64 t.space addr v

(* --- Operand evaluation (reference interpreter) --- *)

let read_operand t w = function
  | Reg r -> read_reg_w t w (gpr_index r)
  | Imm i -> (
      match w with
      | W64 -> i
      | W32 -> Int64.logand i 0xFFFFFFFFL
      | W16 -> Int64.logand i 0xFFFFL
      | W8 -> Int64.logand i 0xFFL)
  | Mem m -> load_mem t w (effective_address t m)

let write_operand t w op v =
  match op with
  | Reg r -> write_reg_w t w (gpr_index r) v
  | Mem m -> store_mem t w (effective_address t m) v
  | Imm _ -> invalid_arg "Machine: immediate as destination"

(* --- Flags --- *)

let[@inline] width_bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

let[@inline] mask_of_width = function
  | W8 -> 0xFFL
  | W16 -> 0xFFFFL
  | W32 -> 0xFFFFFFFFL
  | W64 -> -1L

let[@inline] sign_bit w v = Int64.logand v (Int64.shift_left 1L (width_bits w - 1)) <> 0L

let[@inline] set_logic_flags t w r =
  t.zf <- Int64.logand r (mask_of_width w) = 0L;
  t.sf <- sign_bit w r;
  t.cf <- false;
  t.of_ <- false

let[@inline] set_add_flags t w a b r =
  t.zf <- Int64.logand r (mask_of_width w) = 0L;
  t.sf <- sign_bit w r;
  (if w = W64 then t.cf <- Int64.unsigned_compare r a < 0
   else
     let ua = Int64.logand a (mask_of_width w) and ub = Int64.logand b (mask_of_width w) in
     t.cf <- Int64.unsigned_compare (Int64.add ua ub) (mask_of_width w) > 0);
  t.of_ <- sign_bit w a = sign_bit w b && sign_bit w r <> sign_bit w a

let[@inline] set_sub_flags t w a b r =
  t.zf <- Int64.logand r (mask_of_width w) = 0L;
  t.sf <- sign_bit w r;
  (let ua = Int64.logand a (mask_of_width w) and ub = Int64.logand b (mask_of_width w) in
   t.cf <- Int64.unsigned_compare ua ub < 0);
  t.of_ <- sign_bit w a <> sign_bit w b && sign_bit w r <> sign_bit w a

(* An ALU op's value and its flags, shared by every executor. *)
let[@inline] alu_value op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b

let[@inline] alu_flags t op w a b r =
  match op with
  | Add -> set_add_flags t w a b r
  | Sub -> set_sub_flags t w a b r
  | And | Or | Xor -> set_logic_flags t w r

let[@inline] eval_cond t = function
  | E -> t.zf
  | NE -> not t.zf
  | L -> t.sf <> t.of_
  | GE -> t.sf = t.of_
  | LE -> t.zf || t.sf <> t.of_
  | G -> (not t.zf) && t.sf = t.of_
  | B -> t.cf
  | AE -> not t.cf
  | BE -> t.cf || t.zf
  | A -> (not t.cf) && not t.zf
  | S -> t.sf
  | NS -> not t.sf

(* --- Sign extension helper for Movsx / division --- *)

let[@inline] sext w v =
  match w with
  | W64 -> v
  | _ ->
      let bits = 64 - width_bits w in
      Int64.shift_right (Int64.shift_left v bits) bits

(* --- Execution --- *)

let charge t cycles = t.counters.cycles <- t.counters.cycles + cycles

let charge_frontend t len =
  t.counters.code_bytes <- t.counters.code_bytes + len;
  let bpc = t.cost.Cost.frontend_bytes_per_cycle in
  if bpc > 0 then begin
    let total = t.fetch_accum + len in
    (* [fetch_accum < bpc] always, and instructions are at most 15 bytes,
       so [total / bpc] is almost always 0 or 1: avoid the hardware divide
       on this per-instruction path. *)
    if total < bpc then t.fetch_accum <- total
    else if total - bpc < bpc then begin
      charge t 1;
      t.fetch_accum <- total - bpc
    end
    else begin
      charge t (total / bpc);
      t.fetch_accum <- total mod bpc
    end
  end

let[@inline] push64 t v =
  let rsp_v = Int64.to_int (reg_get t rsp) - 8 in
  reg_set t rsp (Int64.of_int rsp_v);
  check_access t ~addr:rsp_v ~len:8 ~write:true;
  t.counters.stores <- t.counters.stores + 1;
  if rsp_v land page_mask <= Space.page_size - 8 then
    Bytes.set_int64_le (rw_bytes t (rsp_v lsr 12)) (rsp_v land page_mask) v
  else Space.write64 t.space rsp_v v

let[@inline] pop64 t =
  let rsp_v = Int64.to_int (reg_get t rsp) in
  check_access t ~addr:rsp_v ~len:8 ~write:false;
  t.counters.loads <- t.counters.loads + 1;
  let v =
    if rsp_v land page_mask <= Space.page_size - 8 then
      Bytes.get_int64_le (ro_bytes t (rsp_v lsr 12)) (rsp_v land page_mask)
    else Space.read64 t.space rsp_v
  in
  reg_set t rsp (Int64.of_int (rsp_v + 8));
  v

let halt_sentinel = 0L

(* Resolve an absolute code byte address to an instruction index: the
   lowest index whose offset is the target (labels share the offset of the
   instruction that follows them), found by binary search over the sorted
   [offsets] — indirect branches are rare enough that a per-byte table is
   not worth its load-time cost. The final entry, [code_len], is no
   instruction, so a target there resolves only to a trailing label. *)
let jump_via offsets code_base t addr =
  (match t.sanitizer with
  | None -> ()
  | Some f -> f t ~kind:San_branch ~addr ~len:0);
  let off = addr - code_base and n = Array.length offsets - 1 in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if offsets.(mid) < off then lo := mid + 1 else hi := mid
  done;
  if !lo < n && offsets.(!lo) = off then t.pc <- !lo
  else raise (Trap_exn Trap_out_of_bounds)

let jump_to_address t addr =
  let l = get_loaded t in
  jump_via l.offsets t.code_base t addr

(* Code offset of the instruction after [idx]: a call there pushes
   [code_base] plus this. *)
let next_offset (l : loaded) idx = l.offsets.(idx + 1)

(* Pure value computations shared by the reference interpreter and the
   per-op bodies, so the executors cannot drift. *)

let[@inline] shift_value w op a n =
  let bits = width_bits w in
  let masked = Int64.logand a (mask_of_width w) in
  match op with
  | Shl -> Int64.shift_left a n
  | Shr -> Int64.shift_right_logical masked n
  | Sar -> Int64.shift_right (sext w a) n
  | Rol ->
      if n = 0 then a
      else Int64.logor (Int64.shift_left masked n) (Int64.shift_right_logical masked (bits - n))
  | Ror ->
      if n = 0 then a
      else Int64.logor (Int64.shift_right_logical masked n) (Int64.shift_left masked (bits - n))

let rec popcount x n = if x = 0 then n else popcount (x land (x - 1)) (n + 1)
let rec bit_length x n = if x = 0 then n else bit_length (x lsr 1) (n + 1)
let rec trailing_zeros x n = if x land 1 <> 0 then n else trailing_zeros (x lsr 1) (n + 1)

(* [v] is already masked to [w]; counted as two 32-bit halves in [int]. *)
let[@inline] bitcnt_value k w v =
  let lo = Int64.to_int v land 0xFFFFFFFF and hi = Int64.to_int (Int64.shift_right_logical v 32) in
  match k with
  | Popcnt -> popcount lo (popcount hi 0)
  | Tzcnt ->
      if lo <> 0 then trailing_zeros lo 0
      else if hi <> 0 then 32 + trailing_zeros hi 0
      else width_bits w
  | Lzcnt -> width_bits w - if hi <> 0 then 32 + bit_length hi 0 else bit_length lo 0

let div_by_zero = Trap_exn Trap_integer_divide_by_zero
let div_overflow = Trap_exn Trap_integer_overflow

(* [Int64.unsigned_div], restated so it inlines: the stdlib's is too large
   for the inliner and would box. *)
let[@inline] unsigned_div n d =
  if d < 0L then if Int64.unsigned_compare n d < 0 then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if Int64.unsigned_compare r d >= 0 then Int64.succ q else q

(* Division semantics without the cycle charge, which the caller issues
   ([step] per instruction, the compiled engine once per range). *)
let[@inline] div t w signed divisor =
  if signed then begin
    let a = sext w (read_reg_w t w rax) in
    let b = sext w divisor in
    if b = 0L then raise div_by_zero;
    let min_w = sext w (Int64.shift_left 1L (width_bits w - 1)) in
    if a = min_w && b = -1L then raise div_overflow;
    let q = Int64.div a b in
    let r = Int64.rem a b in
    write_reg_w t w rax q;
    write_reg_w t w rdx r
  end
  else begin
    let a = read_reg_w t w rax in
    if divisor = 0L then raise div_by_zero;
    let q = unsigned_div a divisor in
    let r = Int64.sub a (Int64.mul q divisor) in
    write_reg_w t w rax q;
    write_reg_w t w rdx r
  end

let vreg_index (XMM n) =
  if n < 0 || n > 15 then invalid_arg "Machine: bad xmm register";
  n

let vload_data t vi addr =
  check_access t ~addr ~len:16 ~write:false;
  t.counters.loads <- t.counters.loads + 1;
  let off = addr land page_mask in
  if off <= Space.page_size - 16 then Bytes.blit (ro_bytes t (addr lsr 12)) off t.vregs.(vi) 0 16
  else begin
    let data = Space.read_bytes t.space ~addr ~len:16 in
    Bytes.blit data 0 t.vregs.(vi) 0 16
  end

let vstore_data t addr vi =
  check_access t ~addr ~len:16 ~write:true;
  t.counters.stores <- t.counters.stores + 1;
  let off = addr land page_mask in
  if off <= Space.page_size - 16 then Bytes.blit t.vregs.(vi) 0 (rw_bytes t (addr lsr 12)) off 16
  else Space.write_bytes t.space ~addr (Bytes.copy t.vregs.(vi))

(* --- Per-op bodies --- *)

(* A memory operand resolved at translate time: register indices (-1 =
   absent), scale, displacement, the segment whose base is added ([None]
   for Lea), and whether the sum wraps to 32 bits. *)
type ea = { base : int; index : int; scale : int; disp : int; seg : seg option; mask32 : bool }

(* A resolved operand; immediates are pre-masked to the operand width. *)
type opnd = Oreg of int | Oimm of int64 | Omem of ea

let resolve_ea ~lea (m : mem) =
  let index, scale =
    match m.index with Some (r, s) -> (gpr_index r, scale_factor s) | None -> (-1, 0)
  in
  {
    base = (match m.base with Some r -> gpr_index r | None -> -1);
    index;
    scale;
    disp = m.disp;
    seg = (if lea then None else if m.native_base then Some GS else m.seg);
    mask32 = (if lea then m.addr32 else m.addr32 && not m.native_base);
  }

let resolve w = function
  | Reg r -> Oreg (gpr_index r)
  | Imm i -> Oimm (Int64.logand i (mask_of_width w))
  | Mem m -> Omem (resolve_ea ~lea:false m)

(* The address expression without the segment base: Lea's value. *)
let[@inline] addr_sum t e =
  let b = if e.base >= 0 then reg_get t e.base else 0L in
  let s =
    if e.index >= 0 then Int64.add b (Int64.mul (reg_get t e.index) (Int64.of_int e.scale)) else b
  in
  let s = Int64.add s (Int64.of_int e.disp) in
  if e.mask32 then Int64.logand s 0xFFFFFFFFL else s

let[@inline] ea_addr t e =
  let seg = match e.seg with None -> 0 | Some FS -> t.fs_base | Some GS -> t.gs_base in
  Int64.to_int (Int64.add (Int64.of_int seg) (addr_sum t e)) land addr_mask_47

let[@inline] read t w = function
  | Oreg i -> read_reg_w t w i
  | Oimm v -> v
  | Omem e -> load_mem t w (ea_addr t e)

let[@inline] write t w o v =
  match o with
  | Oreg i -> write_reg_w t w i v
  | Omem e -> store_mem t w (ea_addr t e) v
  | Oimm _ -> invalid_arg "Machine: immediate as destination"

(* The body of any instruction: operand kinds, widths, ALU ops and
   conditions are matched on each execution. [compile_body] calls it for
   every shape it does not specialize. *)
let generic_body t (l : loaded) idx =
  let next = idx + 1 and tgt = l.targets.(idx) in
  let offsets = l.offsets and code_base = t.code_base in
  match l.program.(idx) with
  | Label _ | Nop -> fun _ -> ()
  | Mov (w, dst, src) ->
      let d = resolve w dst and s = resolve w src in
      fun t ->
        let v = read t w s in
        write t w d v
  | Movzx (dw, sw, dst, src) ->
      let d = gpr_index dst and s = resolve sw src in
      fun t ->
        let v = read t sw s in
        write_reg_w t dw d v
  | Movsx (dw, sw, dst, src) ->
      let d = gpr_index dst and s = resolve sw src in
      fun t ->
        let v = read t sw s in
        let v = sext sw v in
        write_reg_w t dw d v
  | Lea (w, dst, m) ->
      let d = gpr_index dst and e = resolve_ea ~lea:true m in
      fun t ->
        let v = addr_sum t e in
        write_reg_w t w d v
  | Alu (op, w, dst, src) ->
      let d = resolve w dst and s = resolve w src in
      fun t ->
        let a = read t w d in
        let b = read t w s in
        let r = alu_value op a b in
        alu_flags t op w a b r;
        write t w d r
  | Shift (op, w, dst, count) ->
      let d = resolve w dst and nmask = width_bits w - 1 in
      let cl, imm = match count with Count_imm n -> (false, n) | Count_cl -> (true, 0) in
      fun t ->
        let n = (if cl then Int64.to_int (reg_get t rcx) land 0x3F else imm) land nmask in
        let a = read t w d in
        let r = shift_value w op a n in
        set_logic_flags t w r;
        write t w d r
  | Imul (w, dst, src) ->
      let d = gpr_index dst and s = resolve w src in
      fun t ->
        let b = read t w s in
        let a = read_reg_w t w d in
        write_reg_w t w d (Int64.mul a b)
  | Bitcnt (k, w, dst, src) ->
      let d = gpr_index dst and s = resolve w src in
      fun t ->
        let v = read t w s in
        let v = Int64.logand v (mask_of_width w) in
        write_reg_w t w d (Int64.of_int (bitcnt_value k w v))
  | Div (w, signed, src) ->
      let s = resolve w src in
      fun t ->
        let v = read t w s in
        div t w signed v
  | Cqo w ->
      fun t ->
        let a = read_reg_w t w rax in
        let a = sext w a in
        write_reg_w t w rdx (if a < 0L then -1L else 0L)
  | Neg (w, op) ->
      let d = resolve w op in
      fun t ->
        let a = read t w d in
        let r = Int64.neg a in
        set_sub_flags t w 0L a r;
        write t w d r
  | Not (w, op) ->
      let d = resolve w op in
      fun t ->
        let a = read t w d in
        write t w d (Int64.lognot a)
  | Cmp (w, a, b) ->
      let a = resolve w a and b = resolve w b in
      fun t ->
        let va = read t w a in
        let vb = read t w b in
        set_sub_flags t w va vb (Int64.sub va vb)
  | Test (w, a, b) ->
      let a = resolve w a and b = resolve w b in
      fun t ->
        let va = read t w a in
        let vb = read t w b in
        set_logic_flags t w (Int64.logand va vb)
  | Setcc (c, r) ->
      let i = gpr_index r in
      fun t -> reg_set t i (if eval_cond t c then 1L else 0L)
  | Cmovcc (c, w, dst, src) ->
      let d = gpr_index dst and s = resolve w src in
      fun t ->
        if eval_cond t c then begin
          let v = read t w s in
          write_reg_w t w d v
        end
        else if w = W32 then begin
          (* Hardware quirk: cmov with a 32-bit destination zero-extends
             even when the move does not happen. *)
          let v = read_reg_w t w d in
          write_reg_w t w d v
        end
  | Jmp _ -> if tgt < 0 then fun _ -> raise Not_found else fun t -> t.pc <- tgt
  | Jcc (c, _) ->
      fun t ->
        if eval_cond t c then begin
          charge t t.cost.Cost.taken_branch_cycles;
          if tgt < 0 then raise Not_found;
          t.pc <- tgt
        end
        else t.pc <- next
  | Jmp_reg r ->
      let i = gpr_index r in
      fun t -> jump_via offsets code_base t (Int64.to_int (reg_get t i) land addr_mask_47)
  | Call _ ->
      let ret_addr = Int64.of_int (code_base + next_offset l idx) in
      fun t ->
        push64 t ret_addr;
        if tgt < 0 then raise Not_found;
        t.pc <- tgt
  | Call_reg r ->
      let i = gpr_index r and ret_addr = Int64.of_int (code_base + next_offset l idx) in
      fun t ->
        push64 t ret_addr;
        jump_via offsets code_base t (Int64.to_int (reg_get t i) land addr_mask_47)
  | Ret ->
      fun t ->
        let addr = pop64 t in
        if addr = halt_sentinel then raise Halt_exn;
        jump_via offsets code_base t (Int64.to_int addr land addr_mask_47)
  | Push op ->
      let s = resolve W64 op in
      fun t ->
        let v = read t W64 s in
        push64 t v
  | Pop r ->
      let i = gpr_index r in
      fun t ->
        let v = pop64 t in
        reg_set t i v
  | (Wrfsbase r | Wrgsbase r) as instr ->
      let i = gpr_index r and is_fs = match instr with Wrfsbase _ -> true | _ -> false in
      fun t ->
        t.counters.seg_base_writes <- t.counters.seg_base_writes + 1;
        let v = Int64.to_int (reg_get t i) land addr_mask_47 in
        if is_fs then t.fs_base <- v else t.gs_base <- v
  | Rdfsbase r ->
      let i = gpr_index r in
      fun t -> reg_set t i (Int64.of_int t.fs_base)
  | Rdgsbase r ->
      let i = gpr_index r in
      fun t -> reg_set t i (Int64.of_int t.gs_base)
  | Wrpkru ->
      fun t ->
        t.counters.pkru_writes <- t.counters.pkru_writes + 1;
        set_pkru t (Int64.to_int (reg_get t rax) land 0xFFFFFFFF);
        if Sfi_trace.Trace.enabled t.trace then Sfi_trace.Trace.pkru_write t.trace ~value:t.pkru;
        t.pc <- next
  | Rdpkru ->
      fun t ->
        reg_set t rax (Int64.of_int t.pkru);
        reg_set t rdx 0L
  | Vload (v, m) ->
      let e = resolve_ea ~lea:false m and vi = vreg_index v in
      fun t -> vload_data t vi (ea_addr t e)
  | Vstore (m, v) ->
      let e = resolve_ea ~lea:false m and vi = vreg_index v in
      fun t -> vstore_data t (ea_addr t e) vi
  | Vzero v ->
      let vi = vreg_index v in
      fun t -> Bytes.fill t.vregs.(vi) 0 16 '\000'
  | Vdup8 (v, b) ->
      let vi = vreg_index v and c = Char.chr (b land 0xFF) in
      fun t -> Bytes.fill t.vregs.(vi) 0 16 c
  | Hostcall n -> fun t -> t.hostcall t n
  | Trap k -> fun _ -> raise (Trap_exn k)

(* Helpers for the specialized bodies below, each called with a constant
   op and width. *)

let[@inline] alu32 t op d b =
  let a = read_reg_w t W32 d in
  let v = alu_value op a b in
  alu_flags t op W32 a b v;
  write_reg_w t W32 d v

let[@inline] shift32 t op d n =
  let a = read_reg_w t W32 d in
  let v = shift_value W32 op a n in
  set_logic_flags t W32 v;
  write_reg_w t W32 d v

let[@inline] cmp32 t a b = set_sub_flags t W32 a b (Int64.sub a b)

(* A conditional branch whose target resolved at load. *)
let[@inline] branch t taken tgt next =
  if taken then begin
    charge t t.cost.Cost.taken_branch_cycles;
    t.pc <- tgt
  end
  else t.pc <- next

(* Instruction [idx]'s semantics plus its dynamic charges (TLB walks,
   dcache misses, load/store latency, the taken-branch adder); the caller
   issues the retired-instruction, code-byte and fixed cycle charges. Ops
   that redirect control set [t.pc] themselves; for every other op the
   caller writes the successor pc.

   Each shape that makes up at least 0.5% of the dispatched slots on the
   Figure 3 kernels gets a body chosen here, at translate time: its
   operand kinds, width, ALU op and condition are settled, so the closure
   that runs matches on none of them. 8- and 16-bit forms and every rarer
   shape take [generic_body]. A new arm needs a row in [test_tier]'s
   shape differential. *)
let compile_body t (l : loaded) idx =
  let r = gpr_index and next = idx + 1 and tgt = l.targets.(idx) in
  let ea m = resolve_ea ~lea:false m in
  match l.program.(idx) with
  | Mov (W64, Reg d, Reg s) ->
      let d = r d and s = r s in
      fun t -> reg_set t d (reg_get t s)
  | Mov (W32, Reg d, Reg s) ->
      let d = r d and s = r s in
      fun t ->
        let v = read_reg_w t W32 s in
        reg_set t d v
  | Mov (((W32 | W64) as w), Reg d, Imm i) ->
      (* A 32-bit write zero-extends: the masked immediate is the whole
         register. *)
      let d = r d and v = Int64.logand i (mask_of_width w) in
      fun t -> reg_set t d v
  | Mov (((W32 | W64) as w), Reg d, Mem m) -> (
      (* A 32-bit load is zero-extended already. *)
      let d = r d and e = ea m in
      match w with
      | W64 ->
          fun t ->
            let v = load_mem t W64 (ea_addr t e) in
            reg_set t d v
      | _ ->
          fun t ->
            let v = load_mem t W32 (ea_addr t e) in
            reg_set t d v)
  | Mov (((W32 | W64) as w), Mem m, Reg s) -> (
      let e = ea m and s = r s in
      match w with
      | W64 ->
          fun t ->
            let a = ea_addr t e in
            let v = reg_get t s in
            store_mem t W64 a v
      | _ ->
          fun t ->
            let a = ea_addr t e in
            let v = reg_get t s in
            store_mem t W32 a v)
  | Movzx ((W32 | W64), W8, d, Mem m) ->
      let d = r d and e = ea m in
      fun t ->
        let v = load_mem t W8 (ea_addr t e) in
        reg_set t d v
  (* A 32-bit Lea keeps the sum's low 32 bits: its address-size mask is
     moot. *)
  | Lea (W32, d, { base = Some b; index = None; disp; _ }) ->
      let d = r d and b = r b and disp = Int64.of_int disp in
      fun t ->
        let v = Int64.add (reg_get t b) disp in
        write_reg_w t W32 d v
  | Lea (W32, d, { base = None; index = Some (i, s); disp; _ }) ->
      let d = r d and i = r i and s = Int64.of_int (scale_factor s) in
      let disp = Int64.of_int disp in
      fun t ->
        let v = Int64.add (Int64.mul (reg_get t i) s) disp in
        write_reg_w t W32 d v
  | Lea (W32, d, { base = Some b; index = Some (i, s); disp; _ }) ->
      let d = r d and b = r b and i = r i and s = Int64.of_int (scale_factor s) in
      let disp = Int64.of_int disp in
      fun t ->
        let v = Int64.add (Int64.add (reg_get t b) (Int64.mul (reg_get t i) s)) disp in
        write_reg_w t W32 d v
  | Alu (((And | Sub) as op), W32, Reg d, Imm i) -> (
      let d = r d and b = Int64.logand i 0xFFFFFFFFL in
      match op with
      | And -> fun t -> alu32 t And d b
      | _ -> fun t -> alu32 t Sub d b)
  | Alu (((Add | Sub | And | Xor) as op), W32, Reg d, Reg s) -> (
      let d = r d and s = r s in
      match op with
      | Add -> fun t -> alu32 t Add d (read_reg_w t W32 s)
      | Sub -> fun t -> alu32 t Sub d (read_reg_w t W32 s)
      | And -> fun t -> alu32 t And d (read_reg_w t W32 s)
      | _ -> fun t -> alu32 t Xor d (read_reg_w t W32 s))
  | Cmp (W32, Reg a, Imm i) ->
      let a = r a and b = Int64.logand i 0xFFFFFFFFL in
      fun t -> cmp32 t (read_reg_w t W32 a) b
  | Cmp (W32, Reg a, Reg b) ->
      let a = r a and b = r b in
      fun t -> cmp32 t (read_reg_w t W32 a) (read_reg_w t W32 b)
  | Test (W32, Reg a, Reg b) ->
      let a = r a and b = r b in
      fun t ->
        let v = Int64.logand (reg_get t a) (reg_get t b) in
        set_logic_flags t W32 v
  | Imul (W32, d, Reg s) ->
      let d = r d and s = r s in
      fun t ->
        let v = Int64.mul (reg_get t d) (reg_get t s) in
        write_reg_w t W32 d v
  | Shift (((Shl | Shr | Sar | Rol) as op), W32, Reg d, Count_imm n) -> (
      let d = r d and n = n land 31 in
      match op with
      | Shl -> fun t -> shift32 t Shl d n
      | Shr -> fun t -> shift32 t Shr d n
      | Sar -> fun t -> shift32 t Sar d n
      | _ -> fun t -> shift32 t Rol d n)
  | Shift (Shl, W32, Reg d, Count_cl) ->
      let d = r d in
      fun t -> shift32 t Shl d (Int64.to_int (reg_get t rcx) land 31)
  | Jcc (AE, _) when tgt >= 0 -> fun t -> branch t (eval_cond t AE) tgt next
  | Jcc (NE, _) when tgt >= 0 -> fun t -> branch t (eval_cond t NE) tgt next
  | _ -> generic_body t l idx

(* --- The reference interpreter --- *)

let step t =
  let l = get_loaded t in
  if t.pc < 0 || t.pc >= Array.length l.program then raise (Trap_exn Trap_out_of_bounds);
  let instr = l.program.(t.pc) in
  t.counters.instructions <- t.counters.instructions + 1;
  charge_frontend t (next_offset l t.pc - l.offsets.(t.pc));
  let cost = t.cost in
  (* Direct-branch targets were resolved at load; -1 marks a label that did
     not exist, which surfaces as the same [Not_found] the per-step Hashtbl
     lookup used to raise. *)
  let direct_target () =
    let tgt = l.targets.(t.pc) in
    if tgt < 0 then raise Not_found;
    tgt
  in
  let next_pc = ref (t.pc + 1) in
  (match instr with
  | Label _ -> t.counters.instructions <- t.counters.instructions - 1
  | Nop -> charge t cost.Cost.alu_cycles
  | Mov (w, dst, src) ->
      charge t cost.Cost.alu_cycles;
      write_operand t w dst (read_operand t w src)
  | Movzx (dw, sw, dst, src) ->
      charge t cost.Cost.alu_cycles;
      write_reg_w t dw (gpr_index dst) (read_operand t sw src)
  | Movsx (dw, sw, dst, src) ->
      charge t cost.Cost.alu_cycles;
      write_reg_w t dw (gpr_index dst) (sext sw (read_operand t sw src))
  | Lea (w, dst, m) ->
      charge t cost.Cost.lea_cycles;
      write_reg_w t w (gpr_index dst) (lea_value t m)
  | Alu (op, w, dst, src) ->
      charge t cost.Cost.alu_cycles;
      let a = read_operand t w dst and b = read_operand t w src in
      let r = alu_value op a b in
      alu_flags t op w a b r;
      write_operand t w dst r
  | Shift (op, w, dst, count) ->
      charge t cost.Cost.alu_cycles;
      let n =
        match count with
        | Count_imm n -> n
        | Count_cl -> Int64.to_int (Int64.logand (get_reg t RCX) 0x3FL)
      in
      let n = n land (width_bits w - 1) in
      let a = read_operand t w dst in
      let r = shift_value w op a n in
      set_logic_flags t w r;
      write_operand t w dst r
  | Imul (w, dst, src) ->
      charge t cost.Cost.mul_cycles;
      let r = Int64.mul (read_reg_w t w (gpr_index dst)) (read_operand t w src) in
      write_reg_w t w (gpr_index dst) r
  | Bitcnt (k, w, dst, src) ->
      charge t cost.Cost.alu_cycles;
      let v = Int64.logand (read_operand t w src) (mask_of_width w) in
      write_reg_w t w (gpr_index dst) (Int64.of_int (bitcnt_value k w v))
  | Div (w, signed, src) ->
      charge t cost.Cost.div_cycles;
      div t w signed (read_operand t w src)
  | Cqo w ->
      charge t cost.Cost.alu_cycles;
      let a = sext w (read_reg_w t w rax) in
      write_reg_w t w rdx (if Int64.compare a 0L < 0 then -1L else 0L)
  | Neg (w, op) ->
      charge t cost.Cost.alu_cycles;
      let a = read_operand t w op in
      let r = Int64.neg a in
      set_sub_flags t w 0L a r;
      write_operand t w op r
  | Not (w, op) ->
      charge t cost.Cost.alu_cycles;
      write_operand t w op (Int64.lognot (read_operand t w op))
  | Cmp (w, a, b) ->
      charge t cost.Cost.alu_cycles;
      let va = read_operand t w a and vb = read_operand t w b in
      set_sub_flags t w va vb (Int64.sub va vb)
  | Test (w, a, b) ->
      charge t cost.Cost.alu_cycles;
      let va = read_operand t w a and vb = read_operand t w b in
      set_logic_flags t w (Int64.logand va vb)
  | Setcc (c, r) ->
      charge t cost.Cost.alu_cycles;
      set_reg t r (if eval_cond t c then 1L else 0L)
  | Cmovcc (c, w, dst, src) ->
      charge t cost.Cost.alu_cycles;
      if eval_cond t c then write_reg_w t w (gpr_index dst) (read_operand t w src)
      else if w = W32 then
        (* Hardware quirk: cmov with a 32-bit destination zero-extends even
           when the move does not happen. *)
        write_reg_w t w (gpr_index dst) (read_reg_w t w (gpr_index dst))
  | Jmp _ ->
      charge t (cost.Cost.branch_cycles + cost.Cost.taken_branch_cycles);
      next_pc := direct_target ()
  | Jcc (c, _) ->
      charge t cost.Cost.branch_cycles;
      if eval_cond t c then begin
        charge t cost.Cost.taken_branch_cycles;
        next_pc := direct_target ()
      end
  | Jmp_reg r ->
      charge t cost.Cost.indirect_branch_cycles;
      jump_to_address t (Int64.to_int (get_reg t r) land addr_mask_47);
      next_pc := t.pc
  | Call _ ->
      charge t cost.Cost.call_ret_cycles;
      push64 t (Int64.of_int (t.code_base + next_offset l t.pc));
      next_pc := direct_target ()
  | Call_reg r ->
      charge t (cost.Cost.call_ret_cycles + cost.Cost.indirect_branch_cycles);
      push64 t (Int64.of_int (t.code_base + next_offset l t.pc));
      jump_to_address t (Int64.to_int (get_reg t r) land addr_mask_47);
      next_pc := t.pc
  | Ret ->
      charge t cost.Cost.call_ret_cycles;
      let addr = pop64 t in
      if addr = halt_sentinel then raise Halt_exn;
      jump_to_address t (Int64.to_int addr land addr_mask_47);
      next_pc := t.pc
  | Push op ->
      charge t cost.Cost.store_cycles;
      push64 t (read_operand t W64 op)
  | Pop r ->
      charge t cost.Cost.load_cycles;
      set_reg t r (pop64 t)
  | Wrfsbase r | Wrgsbase r ->
      charge t
        (if t.fsgsbase_available then cost.Cost.wrsegbase_cycles
         else cost.Cost.wrsegbase_syscall_cycles);
      t.counters.seg_base_writes <- t.counters.seg_base_writes + 1;
      let v = Int64.to_int (get_reg t r) land addr_mask_47 in
      (match instr with Wrfsbase _ -> t.fs_base <- v | _ -> t.gs_base <- v)
  | Rdfsbase r ->
      charge t cost.Cost.alu_cycles;
      set_reg t r (Int64.of_int t.fs_base)
  | Rdgsbase r ->
      charge t cost.Cost.alu_cycles;
      set_reg t r (Int64.of_int t.gs_base)
  | Wrpkru ->
      charge t cost.Cost.wrpkru_cycles;
      t.counters.pkru_writes <- t.counters.pkru_writes + 1;
      set_pkru t (Int64.to_int (Int64.logand (get_reg t RAX) 0xFFFFFFFFL));
      if Sfi_trace.Trace.enabled t.trace then
        Sfi_trace.Trace.pkru_write t.trace ~value:t.pkru
  | Rdpkru ->
      charge t cost.Cost.alu_cycles;
      set_reg t RAX (Int64.of_int t.pkru);
      set_reg t RDX 0L
  | Vload (v, m) ->
      charge t cost.Cost.vector_cycles;
      vload_data t (vreg_index v) (effective_address t m)
  | Vstore (m, v) ->
      charge t cost.Cost.vector_cycles;
      vstore_data t (effective_address t m) (vreg_index v)
  | Vzero v ->
      charge t cost.Cost.vector_cycles;
      Bytes.fill t.vregs.(vreg_index v) 0 16 '\000'
  | Vdup8 (v, b) ->
      charge t cost.Cost.vector_cycles;
      Bytes.fill t.vregs.(vreg_index v) 0 16 (Char.chr (b land 0xFF))
  | Hostcall n ->
      charge t cost.Cost.hostcall_cycles;
      t.hostcall t n
  | Trap k -> raise (Trap_exn k));
  t.pc <- !next_pc

let start_at t idx =
  t.last_fault <- None;
  t.pc <- idx;
  push64 t halt_sentinel

let start t ~entry = start_at t (label_index t entry)

let run_reference t ~fuel =
  let budget = ref fuel in
  let result = ref None in
  let sampling = t.prof_interval > 0 in
  (try
     while !result = None do
       if !budget <= 0 then result := Some Yielded
       else begin
         decr budget;
         step t;
         if sampling then prof_sample t 1
       end
     done
   with
  | Halt_exn -> result := Some Halted
  | Hostcall_exit _ -> result := Some Halted
  | Trap_exn k -> result := Some (Trapped k));
  match !result with Some s -> s | None -> assert false

