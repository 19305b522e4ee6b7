module W = Sfi_wasm.Ast
module X = Sfi_x86.Ast
module Vec = Sfi_util.Vec

type config = {
  strategy : Strategy.t;
  table_base : int;
  table_types_base : int;
  vectorize : bool;
  colorguard : bool;
  lfi_reserve_base : bool;
  segue_cost_function : bool;
}

let default_config ?(strategy = Strategy.wasm_default) () =
  {
    strategy;
    table_base = 0x3000_0000;
    table_types_base = 0x3100_0000;
    vectorize = false;
    colorguard = false;
    lfi_reserve_base = false;
    segue_cost_function = false;
  }

let vmctx_memory_bytes = 0
let vmctx_heap_base = 8
let vmctx_pkru_sandbox = 16
let vmctx_pkru_host = 24
let vmctx_stack_limit = 32
let vmctx_globals = 40

let hostcall_memory_grow = 0x1000

type compiled = {
  program : X.program;
  config : config;
  source : W.module_;
  entry_labels : (string * string) list;
  func_labels : string array;
  table_entries : (string * int) array;
  code_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Register conventions.                                               *)
(* ------------------------------------------------------------------ *)

(* Operand-stack ring: depth d lives in ring.(d); deeper values spill. *)
let stack_ring = [| X.RAX; X.RCX; X.RDX; X.RSI; X.RDI; X.R11 |]
let ring_len = Array.length stack_ring

(* Register homes for locals; R14 joins the pool when the strategy does not
   reserve it for the heap base — Segue's freed GPR. *)
let local_pool cfg =
  let base = [ X.RBX; X.R8; X.R9; X.R10; X.R12; X.R13 ] in
  if Strategy.reserves_base_register cfg.strategy || cfg.lfi_reserve_base then base
  else base @ [ X.R14 ]

let heap_base_reg = X.R14
let scratch = X.R15

(* Hostcall argument registers (SysV-flavored); imports take at most 3. *)
let hostcall_args = [| X.RDI; X.RSI; X.RDX |]

(* ------------------------------------------------------------------ *)
(* Virtual stack entries.                                              *)
(* ------------------------------------------------------------------ *)

(* A lazy i32 address expression: base + index*scale + disp. [aclean] means
   every register holds a zero-extended 32-bit value, so the expression may
   be evaluated with 64-bit arithmetic without truncation. *)
type aexpr = {
  abase : X.gpr option;
  aindex : (X.gpr * X.scale) option;
  adisp : int32;
  aclean : bool;
}

type loc =
  | Lconst of int64
  | Laddr of aexpr (* i32 value, lazily represented *)
  | Lalias of X.gpr (* value readable in a register we do not own (a local home) *)
  | Lreg (* value in the canonical ring register for its depth *)
  | Lspill (* value in this depth's frame slot *)

type entry = { ty : W.valty; mutable loc : loc }

type home = Hreg of X.gpr | Hframe of int

type cframe = {
  kind : [ `Block | `Loop | `If ];
  branch_label : string;
  end_label : string;
  result : W.valty option;
  entry_sp : int;
}

type fctx = {
  cfg : config;
  m : W.module_;
  code : X.instr Vec.t;
  mutable vstack : entry array;
  mutable sp : int;
  homes : home array;
  local_tys : W.valty array;
  n_frame_locals : int;
  mutable max_depth : int;
  mutable frames : cframe list;
  fname : string;
  epilogue : string;
  result_ty : W.valty option;
  fresh : int ref; (* module-wide label counter *)
  saved_regs : X.gpr list;
}

let emit ctx i = ignore (Vec.push ctx.code i)

let fresh_label ctx prefix =
  incr ctx.fresh;
  Printf.sprintf ".L%s%d" prefix !(ctx.fresh)

let ring d = stack_ring.(d)

let frame_slot _ctx k = X.mem ~base:X.RBP ~disp:(-8 * (k + 1)) ()
let vslot ctx d = frame_slot ctx (ctx.n_frame_locals + d)
let fs_mem disp = X.mem ~seg:X.FS ~disp ()

let note_depth ctx d = if d + 1 > ctx.max_depth then ctx.max_depth <- d + 1

let entry_at ctx d = ctx.vstack.(d)

let push_entry ctx ty loc =
  if ctx.sp = Array.length ctx.vstack then begin
    let bigger = Array.make (max 16 (2 * ctx.sp)) { ty = W.I32; loc = Lconst 0L } in
    Array.blit ctx.vstack 0 bigger 0 ctx.sp;
    ctx.vstack <- bigger
  end;
  ctx.vstack.(ctx.sp) <- { ty; loc };
  ctx.sp <- ctx.sp + 1;
  note_depth ctx (ctx.sp - 1)

let pop_entry ctx =
  assert (ctx.sp > 0);
  ctx.sp <- ctx.sp - 1;
  ctx.vstack.(ctx.sp)

(* Push a lazily-located value. Deep stack positions (beyond the register
   ring) must not hold lazy locations — they are evaluated through the
   scratch register into their frame slot immediately, so later scratch
   users cannot clobber them. *)
let push_lazy ctx ty loc =
  if ctx.sp < ring_len then push_entry ctx ty loc
  else
    match loc with
    | Lconst _ | Lspill | Lreg -> push_entry ctx ty loc
    | Lalias r ->
        emit ctx (X.Mov (X.W64, X.Reg scratch, X.Reg r));
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx ctx.sp), X.Reg scratch));
        push_entry ctx ty Lspill
    | Laddr a ->
        emit ctx
          (X.Lea (X.W32, scratch, X.mem ?base:a.abase ?index:a.aindex ~disp:(Int32.to_int a.adisp) ()));
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx ctx.sp), X.Reg scratch));
        push_entry ctx ty Lspill

(* Does [e]'s location reference register [r]? *)
let references r (e : entry) =
  match e.loc with
  | Lalias r' -> r = r'
  | Laddr a -> (
      (match a.abase with Some r' -> r' = r | None -> false)
      || match a.aindex with Some (r', _) -> r' = r | None -> false)
  | Lconst _ | Lreg | Lspill -> false

let width_of ty = match ty with W.I32 -> X.W32 | W.I64 -> X.W64

(* Materialize the entry at depth [d] into its canonical location: the ring
   register when d < ring_len, otherwise its frame slot (via the scratch
   register). *)
let rec materialize ctx d =
  let e = entry_at ctx d in
  let target = if d < ring_len then ring d else scratch in
  match e.loc with
  | Lreg | Lspill | Lconst _ -> ()
  | Lalias r ->
      claim_reg ctx target ~except:d;
      emit ctx (X.Mov (X.W64, X.Reg target, X.Reg r));
      if d < ring_len then e.loc <- Lreg
      else begin
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx d), X.Reg scratch));
        e.loc <- Lspill
      end
  | Laddr a ->
      claim_reg ctx target ~except:d;
      (* A 32-bit lea both evaluates and truncates the expression. *)
      emit ctx
        (X.Lea (X.W32, target, X.mem ?base:a.abase ?index:a.aindex ~disp:(Int32.to_int a.adisp) ()));
      if d < ring_len then e.loc <- Lreg
      else begin
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx d), X.Reg scratch));
        e.loc <- Lspill
      end

(* Make register [r] safe to overwrite: any other entry lazily referencing
   it is materialized first. *)
and claim_reg ctx r ~except =
  for d = 0 to ctx.sp - 1 do
    if d <> except && references r (entry_at ctx d) then materialize ctx d
  done

(* Materialize an entry that has been popped (its depth was [d] = current
   sp position it occupied). Returns the register holding the value. *)
let force_reg ctx d (e : entry) =
  (* [d] is the entry's own (possibly already-popped) depth; excluding it
     from the claim keeps a still-live entry from materializing itself
     twice. *)
  let target = if d < ring_len then ring d else scratch in
  match e.loc with
  | Lreg -> if d < ring_len then ring d else scratch
  | Lalias r -> r
  | Lconst c ->
      claim_reg ctx target ~except:d;
      emit ctx (X.Mov (X.W64, X.Reg target, X.Imm c));
      target
  | Laddr { abase = Some r; aindex = None; adisp = 0l; aclean = true } -> r
  | Laddr a ->
      claim_reg ctx target ~except:d;
      emit ctx
        (X.Lea (X.W32, target, X.mem ?base:a.abase ?index:a.aindex ~disp:(Int32.to_int a.adisp) ()));
      e.loc <- (if d < ring_len then Lreg else e.loc);
      target
  | Lspill ->
      claim_reg ctx target ~except:d;
      emit ctx (X.Mov (X.W64, X.Reg target, X.Mem (vslot ctx d)));
      e.loc <- (if d < ring_len then Lreg else e.loc);
      target

(* A readable operand for a popped entry; may be an immediate or a frame
   slot. [no_imm]/[no_mem] force registers when x86 encoding forbids the
   other forms. *)
let force_operand ?(no_imm = false) ?(no_mem = false) ctx d (e : entry) =
  match e.loc with
  | Lconst c when not no_imm -> X.Imm c
  | Lspill when not no_mem -> X.Mem (vslot ctx d)
  | _ -> X.Reg (force_reg ctx d e)

(* ------------------------------------------------------------------ *)
(* Address-expression algebra (i32).                                   *)
(* ------------------------------------------------------------------ *)

let aexpr_of_const c = { abase = None; aindex = None; adisp = Int64.to_int32 c; aclean = true }
let aexpr_of_reg ?(clean = true) r = { abase = Some r; aindex = None; adisp = 0l; aclean = clean }

(* View a popped entry as an address expression (may emit a reload). *)
let aval ctx d (e : entry) =
  match e.loc with
  | Lconst c -> aexpr_of_const c
  | Laddr a -> a
  | Lalias r -> aexpr_of_reg r (* locals hold zero-extended values *)
  | Lreg -> aexpr_of_reg (if d < ring_len then ring d else scratch)
  | Lspill -> aexpr_of_reg (force_reg ctx d e)

let scale_value = function X.S1 -> 1 | X.S2 -> 2 | X.S4 -> 4 | X.S8 -> 8
let scale_of_value = function
  | 1 -> Some X.S1 | 2 -> Some X.S2 | 4 -> Some X.S4 | 8 -> Some X.S8 | _ -> None

(* Merge two address expressions for i32 add; None when it needs more than
   base + index*scale + disp. *)
let merge_add a b =
  let regs =
    (match a.abase with Some r -> [ (r, 1) ] | None -> [])
    @ (match a.aindex with Some (r, s) -> [ (r, scale_value s) ] | None -> [])
    @ (match b.abase with Some r -> [ (r, 1) ] | None -> [])
    @ match b.aindex with Some (r, s) -> [ (r, scale_value s) ] | None -> []
  in
  let disp = Int32.add a.adisp b.adisp in
  let clean = a.aclean && b.aclean in
  match regs with
  | [] -> Some { abase = None; aindex = None; adisp = disp; aclean = clean }
  | [ (r, 1) ] -> Some { abase = Some r; aindex = None; adisp = disp; aclean = clean }
  | [ (r, s) ] ->
      Some
        {
          abase = None;
          aindex = Some (r, Option.get (scale_of_value s));
          adisp = disp;
          aclean = clean;
        }
  | [ (r1, 1); (r2, s2) ] when s2 >= 1 ->
      Some
        {
          abase = Some r1;
          aindex =
            (if s2 = 1 then Some (r2, X.S1) else Some (r2, Option.get (scale_of_value s2)));
          adisp = disp;
          aclean = clean;
        }
  | [ (r1, s1); (r2, 1) ] when s1 > 1 ->
      Some
        {
          abase = Some r2;
          aindex = Some (r1, Option.get (scale_of_value s1));
          adisp = disp;
          aclean = clean;
        }
  | _ -> None

(* Scale an address expression by 2^k (i32 shl by constant). *)
let scale_shl a k =
  if k < 0 || k > 3 then None
  else
    let factor = 1 lsl k in
    match (a.abase, a.aindex) with
    | Some r, None ->
        Some
          {
            abase = None;
            aindex = Some (r, Option.get (scale_of_value factor));
            adisp = Int32.shift_left a.adisp k;
            aclean = a.aclean;
          }
    | None, Some (r, s) ->
        let s' = scale_value s * factor in
        if s' > 8 then None
        else
          Some
            {
              abase = None;
              aindex = Some (r, Option.get (scale_of_value s'));
              adisp = Int32.shift_left a.adisp k;
              aclean = a.aclean;
            }
    | None, None -> Some { a with adisp = Int32.shift_left a.adisp k }
    | Some _, Some _ -> None

(* Multiply by 3, 5 or 9: lea's r + r*s pattern. *)
let scale_mul a c =
  match (c, a.abase, a.aindex, a.adisp) with
  | (3 | 5 | 9), Some r, None, 0l ->
      Some
        {
          abase = Some r;
          aindex = Some (r, Option.get (scale_of_value (c - 1)));
          adisp = 0l;
          aclean = a.aclean;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Result targets.                                                     *)
(* ------------------------------------------------------------------ *)

(* Register to compute a new top-of-stack value into, plus the push that
   records it. Deep values go through the scratch register to their frame
   slot. *)
let result_target ctx ty =
  let d = ctx.sp in
  if d < ring_len then begin
    let r = ring d in
    claim_reg ctx r ~except:(-1);
    (r, fun () -> push_entry ctx ty Lreg)
  end
  else
    ( scratch,
      fun () ->
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx d), X.Reg scratch));
        push_entry ctx ty Lspill )

(* Move the value at the top of the stack into ring.(target_depth) — used
   when branches carry a block result. *)
let move_top_to ctx target_depth =
  let d = ctx.sp - 1 in
  let e = entry_at ctx d in
  if target_depth >= ring_len then begin
    (* Deep merge point: the result lives in the frame slot. *)
    let r = force_reg ctx d e in
    emit ctx (X.Mov (X.W64, X.Mem (vslot ctx target_depth), X.Reg r))
  end
  else
  let tgt = ring target_depth in
  let already =
    match e.loc with
    | Lreg -> d < ring_len && ring d = tgt
    | Lalias r -> r = tgt
    | _ -> false
  in
  if not already then begin
    claim_reg ctx tgt ~except:d;
    match e.loc with
    | Lconst c -> emit ctx (X.Mov (X.W64, X.Reg tgt, X.Imm c))
    | Laddr a ->
        emit ctx
          (X.Lea (X.W32, tgt, X.mem ?base:a.abase ?index:a.aindex ~disp:(Int32.to_int a.adisp) ()))
    | Lalias r -> emit ctx (X.Mov (X.W64, X.Reg tgt, X.Reg r))
    | Lreg ->
        let src = if d < ring_len then ring d else scratch in
        emit ctx (X.Mov (X.W64, X.Reg tgt, X.Reg src))
    | Lspill -> emit ctx (X.Mov (X.W64, X.Reg tgt, X.Mem (vslot ctx d)))
  end

(* Normalize every live entry to a control-stable location (Lconst or
   Lspill) before entering a control construct, so all paths agree on where
   values live at the merge point. *)
let normalize_for_control ctx =
  for d = 0 to ctx.sp - 1 do
    let e = entry_at ctx d in
    (match e.loc with
    | Lconst _ | Lspill -> ()
    | _ ->
        materialize ctx d;
        (* materialize leaves deep entries spilled already *)
        if d < ring_len then begin
          emit ctx (X.Mov (X.W64, X.Mem (vslot ctx d), X.Reg (ring d)));
          e.loc <- Lspill
        end)
  done

(* Spill live entries below [keep_above] before a call. Values lazily held
   in callee-saved local homes may stay lazy. *)
let spill_for_call ctx ~keep_below =
  let local_homes =
    Array.to_list ctx.homes
    |> List.filter_map (function Hreg r -> Some r | Hframe _ -> None)
  in
  let refs_only_homes (e : entry) =
    match e.loc with
    | Lalias r -> List.mem r local_homes
    | Laddr a ->
        let ok = function
          | None -> true
          | Some r -> List.mem r local_homes
        in
        ok a.abase && ok (Option.map fst a.aindex)
    | Lconst _ | Lspill -> true
    | Lreg -> false
  in
  for d = 0 to keep_below - 1 do
    let e = entry_at ctx d in
    if not (refs_only_homes e) then begin
      materialize ctx d;
      if d < ring_len then begin
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx d), X.Reg (ring d)));
        e.loc <- Lspill
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Memory operand construction — the Segue core.                       *)
(* ------------------------------------------------------------------ *)

type eff_addressing = A_direct | A_base | A_segment

let effective_addressing cfg ~is_store =
  match cfg.strategy.Strategy.addressing with
  | Strategy.Direct -> A_direct
  | Strategy.Reserved_base -> A_base
  | Strategy.Segment -> A_segment
  | Strategy.Segment_loads_only -> if is_store then A_base else A_segment


(* Lower the (already popped) address entry into an x86 memory operand for
   an access at static offset [moffset], emitting any prelude instructions
   (lea / bounds check / mask). [d] is the stack position the entry had. *)
let lower_address ctx d (e : entry) ~moffset ~is_store =
  let cfg = ctx.cfg in
  let mode = effective_addressing cfg ~is_store in
  let a = aval ctx d e in
  match cfg.strategy.Strategy.bounds with
  | Strategy.Guard_region -> (
      match mode with
      | A_segment when
          cfg.segue_cost_function
          && Strategy.reserves_base_register cfg.strategy
          && (match (a.abase, a.aindex) with
             | Some _, None | None, None -> a.aclean
             | _ -> false)
          && Int32.to_int a.adisp + moffset >= 0
          && Int32.to_int a.adisp + moffset < 0x4000_0000 ->
          (* The paper's future-work cost function (§6.1's astar outlier):
             when the reserved-base form needs no extra lea — a single
             clean register plus a small displacement — it encodes two
             bytes shorter than the prefixed gs form, so prefer it. Only
             valid when the base register is actually reserved, i.e. for
             the loads of a Segment_loads_only build. *)
          let idx =
            match (a.abase, a.aindex) with
            | Some r, None -> Some (r, X.S1)
            | _ -> None
          in
          X.mem ~base:heap_base_reg ?index:idx ~disp:(Int32.to_int a.adisp + moffset) ()
      | A_segment ->
          (* Full folding with the address-size override: the 32-bit EA
             wrap is exactly Wasm's mod-4GiB offset arithmetic. *)
          let disp = Int32.to_int (Int32.add a.adisp (Int32.of_int moffset)) in
          X.mem ~seg:X.GS ?base:a.abase ?index:a.aindex ~disp ~addr32:true ()
      | A_direct ->
          if a.aclean then
            let disp = Int32.to_int a.adisp + moffset in
            X.mem ?base:a.abase ?index:a.aindex ~disp ~native_base:true ()
          else begin
            let r = force_reg ctx d e in
            X.mem ~base:r ~disp:moffset ~native_base:true ()
          end
      | A_base ->
          let total_disp = Int32.to_int a.adisp + moffset in
          let simple =
            a.aclean && total_disp >= 0 && total_disp < 0x4000_0000
            &&
            match (a.abase, a.aindex) with
            | _, None -> true
            | None, Some (_, X.S1) -> true
            | _ -> false
          in
          if simple then begin
            let idx =
              match (a.abase, a.aindex) with
              | Some r, None -> Some (r, X.S1)
              | None, Some (r, X.S1) -> Some (r, X.S1)
              | None, None -> None
              | _ -> assert false
            in
            X.mem ~base:heap_base_reg ?index:idx ~disp:total_disp ()
          end
          else begin
            (* Figure 1b: a 32-bit lea folds the computation (and the
               truncation), then the reserved base occupies the base slot. *)
            let target = if d < ring_len then ring d else scratch in
            claim_reg ctx target ~except:(-1);
            emit ctx
              (X.Lea
                 ( X.W32,
                   target,
                   X.mem ?base:a.abase ?index:a.aindex
                     ~disp:(Int32.to_int (Int32.add a.adisp (Int32.of_int moffset)))
                     () ));
            X.mem ~base:heap_base_reg ~index:(target, X.S1) ()
          end)
  | Strategy.Explicit_check ->
      (* Materialize the full 32-bit index, compare against the memory
         bound in the instance context, then access. Without Segue the
         heap-base addition is a separate instruction — the one Segue
         removes (§6.1). *)
      let idx =
        match a with
        | { abase = Some r; aindex = None; adisp = 0l; aclean = true } when moffset = 0 -> r
        | _ ->
            claim_reg ctx scratch ~except:(-1);
            emit ctx
              (X.Lea
                 ( X.W32,
                   scratch,
                   X.mem ?base:a.abase ?index:a.aindex
                     ~disp:(Int32.to_int (Int32.add a.adisp (Int32.of_int moffset)))
                     () ));
            scratch
      in
      emit ctx (X.Cmp (X.W64, X.Reg idx, X.Mem (fs_mem vmctx_memory_bytes)));
      emit ctx (X.Jcc (X.AE, "__trap_oob"));
      (match mode with
      | A_segment -> X.mem ~seg:X.GS ~base:idx ()
      | A_direct -> X.mem ~base:idx ~native_base:true ()
      | A_base ->
          if idx = scratch then begin
            emit ctx (X.Alu (X.Add, X.W64, X.Reg scratch, X.Reg heap_base_reg));
            X.mem ~base:scratch ()
          end
          else begin
            emit ctx (X.Lea (X.W64, scratch, X.mem ~base:heap_base_reg ~index:(idx, X.S1) ()));
            X.mem ~base:scratch ()
          end)
  | Strategy.Mask ->
      claim_reg ctx scratch ~except:(-1);
      emit ctx
        (X.Lea
           ( X.W32,
             scratch,
             X.mem ?base:a.abase ?index:a.aindex
               ~disp:(Int32.to_int (Int32.add a.adisp (Int32.of_int moffset)))
               () ));
      emit ctx (X.Alu (X.And, X.W32, X.Reg scratch, X.Imm 0xFFFFFFFFL));
      (match mode with
      | A_segment -> X.mem ~seg:X.GS ~base:scratch ()
      | A_direct -> X.mem ~base:scratch ~native_base:true ()
      | A_base -> X.mem ~base:heap_base_reg ~index:(scratch, X.S1) ())

(* ------------------------------------------------------------------ *)
(* Relational operators to condition codes.                            *)
(* ------------------------------------------------------------------ *)

let cond_of_relop (op : W.relop) =
  match op with
  | W.Eq -> X.E
  | W.Ne -> X.NE
  | W.Lt_s -> X.L
  | W.Lt_u -> X.B
  | W.Gt_s -> X.G
  | W.Gt_u -> X.A
  | W.Le_s -> X.LE
  | W.Le_u -> X.BE
  | W.Ge_s -> X.GE
  | W.Ge_u -> X.AE

(* Emit a compare for a relop, returning the condition to test. *)
let emit_compare ctx ty op =
  let b = pop_entry ctx in
  let db = ctx.sp in
  let w = width_of ty in
  (* Evaluate b while a is still live: materializing b may need a ring
     register that a's lazy form references, and the claim machinery only
     protects live entries. *)
  let b_op = force_operand ctx db b in
  let a = pop_entry ctx in
  let da = ctx.sp in
  let a_op =
    match (a.loc, b_op) with
    | Lconst _, _ -> X.Reg (force_reg ctx da a)
    | Lspill, X.Mem _ -> X.Reg (force_reg ctx da a)
    | Lspill, _ -> X.Mem (vslot ctx da)
    | _ -> X.Reg (force_reg ctx da a)
  in
  emit ctx (X.Cmp (w, a_op, b_op));
  cond_of_relop op

let emit_eqz_test ctx ty =
  let e = pop_entry ctx in
  let d = ctx.sp in
  let w = width_of ty in
  let r = force_reg ctx d e in
  emit ctx (X.Test (w, X.Reg r, X.Reg r));
  X.E

(* ------------------------------------------------------------------ *)
(* The main lowering.                                                  *)
(* ------------------------------------------------------------------ *)

let import_count ctx = Array.length ctx.m.W.imports

let func_label (m : W.module_) idx =
  let nimports = Array.length m.W.imports in
  "f$" ^ m.W.funcs.(idx - nimports).W.fname

let frame_of ctx depth = List.nth ctx.frames depth

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

let rec compile_body ctx (instrs : W.instr list) : bool =
  (* Returns true when the sequence ended in a terminator (the rest of the
     enclosing block is dead and the stack state is meaningless). *)
  match instrs with
  | [] -> false
  | W.Relop (ty, op) :: W.Br_if depth :: rest
    when (frame_of ctx depth).result = None || (frame_of ctx depth).kind = `Loop ->
      let cond = emit_compare ctx ty op in
      emit ctx (X.Jcc (cond, (frame_of ctx depth).branch_label));
      compile_body ctx rest
  | W.Eqz ty :: W.Br_if depth :: rest
    when (frame_of ctx depth).result = None || (frame_of ctx depth).kind = `Loop ->
      let cond = emit_eqz_test ctx ty in
      emit ctx (X.Jcc (cond, (frame_of ctx depth).branch_label));
      compile_body ctx rest
  | W.Relop (ty, op) :: W.If (bt, then_b, else_b) :: rest ->
      let cond = emit_compare ctx ty op in
      compile_if ctx cond bt then_b else_b;
      compile_body ctx rest
  | W.Eqz ty :: W.If (bt, then_b, else_b) :: rest ->
      let cond = emit_eqz_test ctx ty in
      compile_if ctx cond bt then_b else_b;
      compile_body ctx rest
  | i :: rest ->
      if compile_op ctx i then true else compile_body ctx rest

and compile_if ctx cond bt then_b else_b =
  normalize_for_control ctx;
  let else_l = fresh_label ctx "else" in
  let end_l = fresh_label ctx "endif" in
  emit ctx (X.Jcc (X.negate_cond cond, else_l));
  let entry_sp = ctx.sp in
  let frame =
    { kind = `If; branch_label = end_l; end_label = end_l; result = bt; entry_sp }
  in
  ctx.frames <- frame :: ctx.frames;
  let t_term = compile_body ctx then_b in
  if (not t_term) && bt <> None then move_top_to ctx entry_sp;
  emit ctx (X.Jmp end_l);
  emit ctx (X.Label else_l);
  ctx.sp <- entry_sp;
  let e_term = compile_body ctx else_b in
  if (not e_term) && bt <> None then move_top_to ctx entry_sp;
  emit ctx (X.Label end_l);
  ctx.frames <- List.tl ctx.frames;
  ctx.sp <- entry_sp;
  (match bt with
  | Some ty -> push_entry ctx ty (if entry_sp < ring_len then Lreg else Lspill)
  | None -> ())

and compile_block ctx (kind : [ `Block | `If | `Loop ]) bt body =
  normalize_for_control ctx;
  let entry_sp = ctx.sp in
  let start_l = fresh_label ctx "loop" in
  let end_l = fresh_label ctx "end" in
  let branch_label = match kind with `Loop -> start_l | `Block | `If -> end_l in
  let frame = { kind; branch_label; end_label = end_l; result = bt; entry_sp } in
  ctx.frames <- frame :: ctx.frames;
  if kind = `Loop then emit ctx (X.Label start_l);
  let terminated = compile_body ctx body in
  if (not terminated) && bt <> None then move_top_to ctx entry_sp;
  emit ctx (X.Label end_l);
  ctx.frames <- List.tl ctx.frames;
  ctx.sp <- entry_sp;
  (match bt with
  | Some ty -> push_entry ctx ty (if entry_sp < ring_len then Lreg else Lspill)
  | None -> ())

and compile_br ctx depth =
  let frame = frame_of ctx depth in
  (match (frame.kind, frame.result) with
  | `Loop, _ | _, None -> ()
  | _, Some _ -> move_top_to ctx frame.entry_sp);
  emit ctx (X.Jmp frame.branch_label)

and compile_call ctx ~target ~ft =
  let nargs = List.length ft.W.params in
  let has_result = ft.W.results <> [] in
  let args_base = ctx.sp - nargs in
  spill_for_call ctx ~keep_below:args_base;
  (* Push arguments left to right; the callee reads them from its frame. *)
  for d = args_base to ctx.sp - 1 do
    let e = entry_at ctx d in
    let op = force_operand ctx d e in
    let op =
      (* push imm is limited to 32-bit sign-extended values *)
      match op with
      | X.Imm i when not (Int64.equal i (Int64.of_int32 (Int64.to_int32 i))) ->
          if d >= ring_len && target = `Reg scratch then begin
            (* A deep entry reloads through the scratch register, which
               holds the indirect-call target. Every ring register is dead
               once the deep arguments are being pushed. *)
            emit ctx (X.Mov (X.W64, X.Reg (ring 0), X.Imm i));
            X.Reg (ring 0)
          end
          else X.Reg (force_reg ctx d e)
      | other -> other
    in
    emit ctx (X.Push op)
  done;
  ctx.sp <- args_base;
  (match target with
  | `Label l -> emit ctx (X.Call l)
  | `Reg r -> emit ctx (X.Call_reg r));
  if nargs > 0 then emit ctx (X.Alu (X.Add, X.W64, X.Reg X.RSP, X.Imm (Int64.of_int (8 * nargs))));
  if has_result then begin
    let ty = List.hd ft.W.results in
    let r, commit = result_target ctx ty in
    if r <> X.RAX then emit ctx (X.Mov (X.W64, X.Reg r, X.Reg X.RAX));
    commit ()
  end

and compile_hostcall ctx ~hostcall_id ~ft =
  let nargs = List.length ft.W.params in
  if nargs > Array.length hostcall_args then
    unsupported "import with %d parameters (max %d)" nargs (Array.length hostcall_args);
  let args_base = ctx.sp - nargs in
  (* Spill everything (including args) to frame slots, then load argument
     registers from the slots — the ring and the hostcall registers
     overlap. *)
  spill_for_call ctx ~keep_below:ctx.sp;
  for d = args_base to ctx.sp - 1 do
    let e = entry_at ctx d in
    let arg_reg = hostcall_args.(d - args_base) in
    (match e.loc with
    | Lconst c -> emit ctx (X.Mov (X.W64, X.Reg arg_reg, X.Imm c))
    | Lalias r -> emit ctx (X.Mov (X.W64, X.Reg arg_reg, X.Reg r))
    | Laddr a ->
        emit ctx
          (X.Lea
             (X.W32, arg_reg, X.mem ?base:a.abase ?index:a.aindex ~disp:(Int32.to_int a.adisp) ()))
    | Lspill | Lreg -> emit ctx (X.Mov (X.W64, X.Reg arg_reg, X.Mem (vslot ctx d))))
  done;
  ctx.sp <- args_base;
  emit ctx (X.Hostcall hostcall_id);
  if ft.W.results <> [] then begin
    let ty = List.hd ft.W.results in
    let r, commit = result_target ctx ty in
    (* Host results are untrusted 64-bit values: an i32 result must be
       zero-extended to preserve the register invariant (a 32-bit mov
       does it for free). *)
    (match ty with
    | W.I32 -> emit ctx (X.Mov (X.W32, X.Reg r, X.Reg X.RAX))
    | W.I64 -> if r <> X.RAX then emit ctx (X.Mov (X.W64, X.Reg r, X.Reg X.RAX)));
    commit ()
  end

and compile_binop ctx ty (op : W.binop) =
  let w = width_of ty in
  match op with
  (* i32 address-expression folding: zero instructions when it fits. *)
  | W.Add when ty = W.I32 && ctx.sp <= ring_len -> (
      (* Folding reloads spilled operands through the scratch register;
         beyond the ring both operands would collide there, so deep adds
         take the generic path (the guard above: b's depth < ring_len). *)
      let b = pop_entry ctx in
      let db = ctx.sp in
      let bv = aval ctx db b in
      let a = pop_entry ctx in
      let da = ctx.sp in
      let av = aval ctx da a in
      match merge_add av bv with
      | Some merged -> push_lazy ctx W.I32 (Laddr merged)
      | None ->
          ctx.sp <- ctx.sp + 2;
          generic_binop ctx w X.Add)
  | W.Shl when ty = W.I32 -> (
      match (entry_at ctx (ctx.sp - 1)).loc with
      | Lconst c -> (
          let k = Int64.to_int (Int64.logand c 31L) in
          let _count = pop_entry ctx in
          let a = pop_entry ctx in
          let da = ctx.sp in
          match scale_shl (aval ctx da a) k with
          | Some scaled -> push_lazy ctx W.I32 (Laddr scaled)
          | None ->
              ctx.sp <- ctx.sp + 2;
              compile_shift ctx w X.Shl)
      | _ -> compile_shift ctx w X.Shl)
  | W.Mul
    when ty = W.I32
         && (match (entry_at ctx (ctx.sp - 1)).loc with
            | Lconst (2L | 3L | 4L | 5L | 8L | 9L) -> true
            | _ -> false) -> (
      let c =
        match (entry_at ctx (ctx.sp - 1)).loc with Lconst c -> Int64.to_int c | _ -> assert false
      in
      let _count = pop_entry ctx in
      let a = pop_entry ctx in
      let da = ctx.sp in
      let av = aval ctx da a in
      let folded =
        match c with
        | 2 -> scale_shl av 1
        | 4 -> scale_shl av 2
        | 8 -> scale_shl av 3
        | c -> scale_mul av c
      in
      match folded with
      | Some f -> push_lazy ctx W.I32 (Laddr f)
      | None ->
          ctx.sp <- ctx.sp + 2;
          compile_mul ctx w)
  | W.Add -> generic_binop ctx w X.Add
  | W.Sub -> generic_binop ctx w X.Sub
  | W.And -> generic_binop ctx w X.And
  | W.Or -> generic_binop ctx w X.Or
  | W.Xor -> generic_binop ctx w X.Xor
  | W.Mul -> compile_mul ctx w
  | W.Shl -> compile_shift ctx w X.Shl
  | W.Shr_u -> compile_shift ctx w X.Shr
  | W.Shr_s -> compile_shift ctx w X.Sar
  | W.Rotl -> compile_shift ctx w X.Rol
  | W.Rotr -> compile_shift ctx w X.Ror
  | W.Div_s -> compile_div ctx w ~signed:true ~want_rem:false
  | W.Div_u -> compile_div ctx w ~signed:false ~want_rem:false
  | W.Rem_s -> compile_div ctx w ~signed:true ~want_rem:true
  | W.Rem_u -> compile_div ctx w ~signed:false ~want_rem:true

and generic_binop ctx w op =
  let b = pop_entry ctx in
  let db = ctx.sp in
  let b_op = force_operand ctx db b in
  let a = pop_entry ctx in
  let da = ctx.sp in
  let ty = if w = X.W64 then W.I64 else W.I32 in
  (* Result goes into the ring register of the first operand's depth. *)
  let target = if da < ring_len then ring da else scratch in
  move_entry_into ctx target da a;
  let b_op =
    match b_op with
    | X.Reg r when r = target -> X.Reg (force_reg ctx db b)
    | other -> other
  in
  emit ctx (X.Alu (op, w, X.Reg target, b_op));
  if da < ring_len then push_entry ctx ty Lreg
  else begin
    emit ctx (X.Mov (X.W64, X.Mem (vslot ctx da), X.Reg scratch));
    push_entry ctx ty Lspill
  end

(* Copy an entry's value into [target] (claiming it first). *)
and move_entry_into ctx target d (e : entry) =
  claim_reg ctx target ~except:(-1);
  match e.loc with
  | Lconst c -> emit ctx (X.Mov (X.W64, X.Reg target, X.Imm c))
  | Lalias r -> if r <> target then emit ctx (X.Mov (X.W64, X.Reg target, X.Reg r))
  | Laddr { abase = Some r; aindex = None; adisp = 0l; aclean = true } ->
      if r <> target then emit ctx (X.Mov (X.W64, X.Reg target, X.Reg r))
  | Laddr a ->
      emit ctx
        (X.Lea (X.W32, target, X.mem ?base:a.abase ?index:a.aindex ~disp:(Int32.to_int a.adisp) ()))
  | Lreg ->
      let src = if d < ring_len then ring d else scratch in
      if src <> target then emit ctx (X.Mov (X.W64, X.Reg target, X.Reg src))
  | Lspill -> emit ctx (X.Mov (X.W64, X.Reg target, X.Mem (vslot ctx d)))

and compile_mul ctx w =
  let b = pop_entry ctx in
  let db = ctx.sp in
  let b_op = force_operand ~no_imm:true ctx db b in
  let a = pop_entry ctx in
  let da = ctx.sp in
  let ty = if w = X.W64 then W.I64 else W.I32 in
  let target = if da < ring_len then ring da else scratch in
  move_entry_into ctx target da a;
  let b_op = match b_op with X.Reg r when r = target -> X.Reg target | o -> o in
  emit ctx (X.Imul (w, target, b_op));
  if da < ring_len then push_entry ctx ty Lreg
  else begin
    emit ctx (X.Mov (X.W64, X.Mem (vslot ctx da), X.Reg scratch));
    push_entry ctx ty Lspill
  end

and compile_shift ctx w op =
  let count = pop_entry ctx in
  let dc = ctx.sp in
  (* Evaluate a dynamic count while the shiftee is still live. *)
  let count_op = lazy (force_operand ~no_imm:true ctx dc count) in
  (match count.loc with Lconst _ -> () | _ -> ignore (Lazy.force count_op));
  let a = pop_entry ctx in
  let da = ctx.sp in
  let ty = if w = X.W64 then W.I64 else W.I32 in
  match count.loc with
  | Lconst c ->
      let n = Int64.to_int c land (if w = X.W64 then 63 else 31) in
      let target = if da < ring_len then ring da else scratch in
      move_entry_into ctx target da a;
      emit ctx (X.Shift (op, w, X.Reg target, X.Count_imm n));
      if da < ring_len then push_entry ctx ty Lreg
      else begin
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx da), X.Reg scratch));
        push_entry ctx ty Lspill
      end
  | _ ->
      (* Dynamic count must be in CL (= RCX, ring register 1). The shiftee
         may itself live in RCX, so move it to its work register BEFORE
         loading the count. *)
      let count_op = Lazy.force count_op in
      let target = if da < ring_len then ring da else scratch in
      let work = if target = X.RCX then scratch else target in
      move_entry_into ctx work da a;
      free_ring_reg ctx X.RCX;
      (match count_op with
      | X.Reg r when r = X.RCX -> ()
      | op_ -> emit ctx (X.Mov (X.W64, X.Reg X.RCX, op_)));
      emit ctx (X.Shift (op, w, X.Reg work, X.Count_cl));
      if target = X.RCX then begin
        emit ctx (X.Mov (X.W64, X.Reg X.RCX, X.Reg work));
        push_entry ctx ty Lreg
      end
      else if da < ring_len then push_entry ctx ty Lreg
      else begin
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx da), X.Reg scratch));
        push_entry ctx ty Lspill
      end

(* Spill any live stack value currently resident in [r] (used to free RAX /
   RDX / RCX for division and shifts). *)
and free_ring_reg ctx r =
  for d = 0 to ctx.sp - 1 do
    let e = entry_at ctx d in
    if references r e then materialize ctx d;
    let e = entry_at ctx d in
    if e.loc = Lreg && d < ring_len && ring d = r then begin
      emit ctx (X.Mov (X.W64, X.Mem (vslot ctx d), X.Reg r));
      e.loc <- Lspill
    end
  done

and compile_div ctx w ~signed ~want_rem =
  let b = pop_entry ctx in
  let db = ctx.sp in
  (* Divisor to scratch first (it may live in RAX/RDX), evaluated while the
     dividend is still live so its lazy references stay protected. *)
  let b_op = force_operand ~no_imm:true ctx db b in
  (match b_op with
  | X.Reg r when r = scratch -> ()
  | op_ -> emit ctx (X.Mov (X.W64, X.Reg scratch, op_)));
  let a = pop_entry ctx in
  let da = ctx.sp in
  let ty = if w = X.W64 then W.I64 else W.I32 in
  free_ring_reg ctx X.RAX;
  free_ring_reg ctx X.RDX;
  move_entry_into ctx X.RAX da a;
  if signed && want_rem then begin
    (* Wasm: rem_s(min, -1) = 0, but idiv would fault. *)
    let special = fresh_label ctx "rem1" in
    let done_ = fresh_label ctx "remd" in
    emit ctx (X.Cmp (w, X.Reg scratch, X.Imm (-1L)));
    emit ctx (X.Jcc (X.E, special));
    emit ctx (X.Cqo w);
    emit ctx (X.Div (w, true, X.Reg scratch));
    emit ctx (X.Jmp done_);
    emit ctx (X.Label special);
    emit ctx (X.Mov (X.W64, X.Reg X.RDX, X.Imm 0L));
    emit ctx (X.Label done_)
  end
  else begin
    if signed then emit ctx (X.Cqo w)
    else emit ctx (X.Alu (X.Xor, X.W32, X.Reg X.RDX, X.Reg X.RDX));
    emit ctx (X.Div (w, signed, X.Reg scratch))
  end;
  let src = if want_rem then X.RDX else X.RAX in
  let target = if da < ring_len then ring da else scratch in
  if target = src then push_entry ctx ty Lreg
  else begin
    claim_reg ctx target ~except:(-1);
    emit ctx (X.Mov (X.W64, X.Reg target, X.Reg src));
    if da < ring_len then push_entry ctx ty Lreg
    else begin
      emit ctx (X.Mov (X.W64, X.Mem (vslot ctx da), X.Reg target));
      push_entry ctx ty Lspill
    end
  end

and compile_op ctx (i : W.instr) : bool =
  match i with
  | W.Unreachable ->
      emit ctx (X.Trap X.Trap_unreachable);
      true
  | W.Nop -> false
  | W.Const (W.V_i32 v) ->
      push_entry ctx W.I32 (Lconst (Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL));
      false
  | W.Const (W.V_i64 v) ->
      push_entry ctx W.I64 (Lconst v);
      false
  | W.Binop (ty, op) ->
      compile_binop ctx ty op;
      false
  | W.Relop (ty, op) ->
      let cond = emit_compare ctx ty op in
      let r, commit = result_target ctx W.I32 in
      emit ctx (X.Setcc (cond, r));
      commit ();
      false
  | W.Eqz ty ->
      let cond = emit_eqz_test ctx ty in
      let r, commit = result_target ctx W.I32 in
      emit ctx (X.Setcc (cond, r));
      commit ();
      false
  | W.Cvt W.I32_wrap_i64 ->
      let e = pop_entry ctx in
      let d = ctx.sp in
      (match e.loc with
      | Lconst c -> push_entry ctx W.I32 (Lconst (Int64.logand c 0xFFFFFFFFL))
      | Lalias r -> push_lazy ctx W.I32 (Laddr { (aexpr_of_reg r) with aclean = false })
      | Lreg when d < ring_len ->
          push_lazy ctx W.I32 (Laddr { (aexpr_of_reg (ring d)) with aclean = false })
      | Lreg | Lspill ->
          let r = force_reg ctx d e in
          push_lazy ctx W.I32 (Laddr { (aexpr_of_reg r) with aclean = false })
      | Laddr _ -> assert false (* i64 entries are never Laddr *));
      false
  | W.Cvt W.I64_extend_i32_u ->
      let e = pop_entry ctx in
      let d = ctx.sp in
      (match e.loc with
      | Lconst c -> push_entry ctx W.I64 (Lconst (Int64.logand c 0xFFFFFFFFL))
      | _ ->
          (* Materializing guarantees a zero-extended 32-bit value. *)
          let clean = match e.loc with Laddr a -> a.aclean | _ -> true in
          let r = force_reg ctx d e in
          if not clean then begin
            (* Dirty upper bits: the free zero-extension of a 32-bit mov. *)
            let target, commit = result_target ctx W.I64 in
            emit ctx (X.Mov (X.W32, X.Reg target, X.Reg r));
            commit ()
          end
          else if d < ring_len && r = ring d then push_entry ctx W.I64 Lreg
          else if r = scratch then begin
            emit ctx (X.Mov (X.W64, X.Mem (vslot ctx d), X.Reg scratch));
            push_entry ctx W.I64 Lspill
          end
          else push_lazy ctx W.I64 (Lalias r));
      false
  | W.Cvt W.I64_extend_i32_s ->
      let e = pop_entry ctx in
      let d = ctx.sp in
      let op = force_operand ~no_imm:true ctx d e in
      let target, commit = result_target ctx W.I64 in
      (match op with
      | X.Reg r -> emit ctx (X.Movsx (X.W64, X.W32, target, X.Reg r))
      | m -> emit ctx (X.Movsx (X.W64, X.W32, target, m)));
      commit ();
      false
  | W.Clz ty | W.Ctz ty | W.Popcnt ty ->
      let kind =
        match i with
        | W.Clz _ -> X.Lzcnt
        | W.Ctz _ -> X.Tzcnt
        | _ -> X.Popcnt
      in
      let e = pop_entry ctx in
      let d = ctx.sp in
      let op = force_operand ~no_imm:true ctx d e in
      let target, commit = result_target ctx ty in
      emit ctx (X.Bitcnt (kind, width_of ty, target, op));
      commit ();
      false
  | W.Drop ->
      ignore (pop_entry ctx);
      false
  | W.Select ->
      let c = pop_entry ctx in
      let dc = ctx.sp in
      let c_reg = force_reg ctx dc c in
      let b = pop_entry ctx in
      let db = ctx.sp in
      let b_op = force_operand ~no_imm:true ~no_mem:false ctx db b in
      let a = pop_entry ctx in
      let da = ctx.sp in
      let ty = a.ty in
      let target = if da < ring_len then ring da else scratch in
      move_entry_into ctx target da a;
      emit ctx (X.Test (X.W32, X.Reg c_reg, X.Reg c_reg));
      emit ctx (X.Cmovcc (X.E, X.W64, target, b_op));
      if da < ring_len then push_entry ctx ty Lreg
      else begin
        emit ctx (X.Mov (X.W64, X.Mem (vslot ctx da), X.Reg scratch));
        push_entry ctx ty Lspill
      end;
      false
  | W.Local_get n ->
      let ty = ctx.local_tys.(n) in
      (match ctx.homes.(n) with
      | Hreg r ->
          if ty = W.I32 then push_lazy ctx W.I32 (Laddr (aexpr_of_reg r))
          else push_lazy ctx W.I64 (Lalias r)
      | Hframe k ->
          (* Load from the frame slot into the canonical target. *)
          let target, commit = result_target ctx ty in
          emit ctx (X.Mov (X.W64, X.Reg target, X.Mem (frame_slot ctx k)));
          commit ());
      false
  | W.Local_set n ->
      compile_local_set ctx n;
      false
  | W.Local_tee n ->
      compile_local_set ctx n;
      compile_op ctx (W.Local_get n)
  | W.Global_get n ->
      let ty = ctx.m.W.globals.(n).W.gtype in
      let target, commit = result_target ctx ty in
      emit ctx (X.Mov (X.W64, X.Reg target, X.Mem (fs_mem (vmctx_globals + (8 * n)))));
      commit ();
      false
  | W.Global_set n ->
      let e = pop_entry ctx in
      let d = ctx.sp in
      let op = force_operand ~no_mem:true ctx d e in
      let op =
        match op with
        | X.Imm i when not (Int64.equal i (Int64.of_int32 (Int64.to_int32 i))) ->
            X.Reg (force_reg ctx d e)
        | o -> o
      in
      emit ctx (X.Mov (X.W64, X.Mem (fs_mem (vmctx_globals + (8 * n))), op));
      false
  | W.Load (ty, packing, { offset }) ->
      let addr = pop_entry ctx in
      let d = ctx.sp in
      let mem = lower_address ctx d addr ~moffset:offset ~is_store:false in
      let target, commit = result_target ctx ty in
      (match (ty, packing) with
      | W.I32, None -> emit ctx (X.Mov (X.W32, X.Reg target, X.Mem mem))
      | W.I64, None -> emit ctx (X.Mov (X.W64, X.Reg target, X.Mem mem))
      | _, Some (W.P8, W.Unsigned) -> emit ctx (X.Movzx (width_of ty, X.W8, target, X.Mem mem))
      | _, Some (W.P8, W.Signed) -> emit ctx (X.Movsx (width_of ty, X.W8, target, X.Mem mem))
      | _, Some (W.P16, W.Unsigned) -> emit ctx (X.Movzx (width_of ty, X.W16, target, X.Mem mem))
      | _, Some (W.P16, W.Signed) -> emit ctx (X.Movsx (width_of ty, X.W16, target, X.Mem mem))
      | W.I64, Some (W.P32, W.Unsigned) -> emit ctx (X.Mov (X.W32, X.Reg target, X.Mem mem))
      | W.I64, Some (W.P32, W.Signed) -> emit ctx (X.Movsx (X.W64, X.W32, target, X.Mem mem))
      | W.I32, Some (W.P32, _) -> assert false);
      commit ();
      false
  | W.Store (ty, packing, { offset }) ->
      let v = pop_entry ctx in
      let dv = ctx.sp in
      let w =
        match (ty, packing) with
        | _, Some W.P8 -> X.W8
        | _, Some W.P16 -> X.W16
        | W.I64, Some W.P32 -> X.W32
        | W.I32, None -> X.W32
        | W.I64, None -> X.W64
        | W.I32, Some W.P32 -> assert false
      in
      (* Make sure the value is in a register (or small immediate) before
         the address is popped and lowered: the claim machinery protects
         the (still-live) address entry, and lower_address later claims the
         scratch register. *)
      let v_op = force_operand ~no_mem:true ctx dv v in
      let addr = pop_entry ctx in
      let da = ctx.sp in
      let v_op =
        match v_op with
        | X.Imm i when w = X.W64 && not (Int64.equal i (Int64.of_int32 (Int64.to_int32 i))) ->
            X.Reg (force_reg ctx dv v)
        | o -> o
      in
      let v_op =
        (* The mask/explicit paths use the scratch register for the index;
           if the value also sits in scratch we must move it. *)
        match v_op with
        | X.Reg r
          when r = scratch && ctx.cfg.strategy.Strategy.bounds <> Strategy.Guard_region ->
            let tmp = ring dv in
            claim_reg ctx tmp ~except:(-1);
            emit ctx (X.Mov (X.W64, X.Reg tmp, X.Reg scratch));
            X.Reg tmp
        | o -> o
      in
      let mem = lower_address ctx da addr ~moffset:offset ~is_store:true in
      emit ctx (X.Mov (w, X.Mem mem, v_op));
      false
  | W.Memory_size ->
      let target, commit = result_target ctx W.I32 in
      emit ctx (X.Mov (X.W64, X.Reg target, X.Mem (fs_mem vmctx_memory_bytes)));
      emit ctx (X.Shift (X.Shr, X.W64, X.Reg target, X.Count_imm 16));
      commit ();
      false
  | W.Memory_grow ->
      let ft = { W.params = [ W.I32 ]; W.results = [ W.I32 ] } in
      compile_hostcall ctx ~hostcall_id:hostcall_memory_grow ~ft;
      false
  | W.Memory_copy ->
      compile_bulk ctx "__bulk_copy";
      false
  | W.Memory_fill ->
      compile_bulk ctx "__bulk_fill";
      false
  | W.Block (bt, body) ->
      compile_block ctx `Block bt body;
      false
  | W.Loop (bt, body) ->
      compile_block ctx `Loop bt body;
      false
  | W.If (bt, then_b, else_b) ->
      let e = pop_entry ctx in
      let d = ctx.sp in
      let r = force_reg ctx d e in
      emit ctx (X.Test (X.W32, X.Reg r, X.Reg r));
      compile_if ctx X.NE bt then_b else_b;
      false
  | W.Br depth ->
      compile_br ctx depth;
      true
  | W.Br_if depth ->
      let frame = frame_of ctx depth in
      let e = pop_entry ctx in
      let d = ctx.sp in
      let r = force_reg ctx d e in
      emit ctx (X.Test (X.W32, X.Reg r, X.Reg r));
      if frame.result = None || frame.kind = `Loop then
        emit ctx (X.Jcc (X.NE, frame.branch_label))
      else begin
        (* Carry the block result on the taken path. *)
        let skip = fresh_label ctx "bri" in
        emit ctx (X.Jcc (X.E, skip));
        move_top_to ctx frame.entry_sp;
        emit ctx (X.Jmp frame.branch_label);
        emit ctx (X.Label skip)
      end;
      false
  | W.Br_table (targets, default) ->
      let all = targets @ [ default ] in
      List.iter
        (fun depth ->
          let f = frame_of ctx depth in
          if f.result <> None && f.kind <> `Loop then
            unsupported "br_table to a value-carrying block")
        all;
      let e = pop_entry ctx in
      let d = ctx.sp in
      let r = force_reg ctx d e in
      List.iteri
        (fun k depth ->
          emit ctx (X.Cmp (X.W32, X.Reg r, X.Imm (Int64.of_int k)));
          emit ctx (X.Jcc (X.E, (frame_of ctx depth).branch_label)))
        targets;
      emit ctx (X.Jmp (frame_of ctx default).branch_label);
      true
  | W.Return ->
      (match ctx.result_ty with
      | Some _ ->
          let d = ctx.sp - 1 in
          let e = entry_at ctx d in
          move_entry_into ctx X.RAX d e
      | None -> ());
      emit ctx (X.Jmp ctx.epilogue);
      true
  | W.Call idx ->
      let ft = W.type_of_func ctx.m idx in
      if idx < import_count ctx then compile_hostcall ctx ~hostcall_id:idx ~ft
      else compile_call ctx ~target:(`Label (func_label ctx.m idx)) ~ft;
      false
  | W.Call_indirect tyidx ->
      compile_call_indirect ctx tyidx;
      false

and compile_local_set ctx n =
  let e = pop_entry ctx in
  let d = ctx.sp in
  match ctx.homes.(n) with
  | Hreg home ->
      let op = force_operand ~no_mem:false ctx d e in
      (* Any lazy value referencing the home must be saved first. *)
      claim_reg ctx home ~except:(-1);
      (match op with
      | X.Reg r when r = home -> ()
      | o -> emit ctx (X.Mov (X.W64, X.Reg home, o)))
  | Hframe k ->
      let op = force_operand ~no_mem:true ctx d e in
      let op =
        match op with
        | X.Imm i when not (Int64.equal i (Int64.of_int32 (Int64.to_int32 i))) ->
            X.Reg (force_reg ctx d e)
        | o -> o
      in
      emit ctx (X.Mov (X.W64, X.Mem (frame_slot ctx k), op))

and compile_bulk ctx label =
  (* dst, src/val, len are the top three values; the builtins take them in
     RDI, RSI, RDX. *)
  let args_base = ctx.sp - 3 in
  spill_for_call ctx ~keep_below:ctx.sp;
  for d = args_base to ctx.sp - 1 do
    let e = entry_at ctx d in
    let arg_reg = hostcall_args.(d - args_base) in
    match e.loc with
    | Lconst c -> emit ctx (X.Mov (X.W64, X.Reg arg_reg, X.Imm c))
    | Lalias r -> emit ctx (X.Mov (X.W64, X.Reg arg_reg, X.Reg r))
    | Laddr a ->
        emit ctx
          (X.Lea
             (X.W32, arg_reg, X.mem ?base:a.abase ?index:a.aindex ~disp:(Int32.to_int a.adisp) ()))
    | Lspill | Lreg -> emit ctx (X.Mov (X.W64, X.Reg arg_reg, X.Mem (vslot ctx d)))
  done;
  ctx.sp <- args_base;
  emit ctx (X.Call label)

and compile_call_indirect ctx tyidx =
  let m = ctx.m in
  let ft = m.W.types.(tyidx) in
  let idx_e = pop_entry ctx in
  let d = ctx.sp in
  let r = force_reg ctx d idx_e in
  let table_size = Array.length m.W.table in
  emit ctx (X.Cmp (X.W64, X.Reg r, X.Imm (Int64.of_int table_size)));
  emit ctx (X.Jcc (X.AE, "__trap_table"));
  let type_slot = X.Mem (X.mem ~index:(r, X.S4) ~disp:ctx.cfg.table_types_base ()) in
  let tyidx_imm = X.Imm (Int64.of_int tyidx) in
  if r = scratch then
    (* A deep index already lives in the scratch register: compare the
       signature in memory so the index survives for the target load. *)
    emit ctx (X.Cmp (X.W32, type_slot, tyidx_imm))
  else begin
    emit ctx (X.Mov (X.W32, X.Reg scratch, type_slot));
    emit ctx (X.Cmp (X.W32, X.Reg scratch, tyidx_imm))
  end;
  emit ctx (X.Jcc (X.NE, "__trap_sig"));
  emit ctx
    (X.Mov (X.W64, X.Reg scratch, X.Mem (X.mem ~index:(r, X.S8) ~disp:ctx.cfg.table_base ())));
  compile_call ctx ~target:(`Reg scratch) ~ft

(* ------------------------------------------------------------------ *)
(* Function compilation.                                               *)
(* ------------------------------------------------------------------ *)

let compile_func cfg m fresh code (f : W.func) =
  let ft = m.W.types.(f.W.ftype) in
  let params = ft.W.params in
  let all_locals = Array.of_list (params @ f.W.locals) in
  let pool = local_pool cfg in
  let n_locals = Array.length all_locals in
  (* Filled in place from a constant, like [compile]'s tables. *)
  let homes = Array.make n_locals (Hframe 0) in
  for i = 0 to n_locals - 1 do
    homes.(i) <-
      (match List.nth_opt pool i with Some r -> Hreg r | None -> Hframe (i - List.length pool))
  done;
  let n_frame_locals = max 0 (n_locals - List.length pool) in
  let saved_regs =
    List.filteri (fun i _ -> i < n_locals) pool
  in
  let epilogue = "f$" ^ f.W.fname ^ "$end" in
  let ctx =
    {
      cfg;
      m;
      code;
      vstack = Array.make 16 { ty = W.I32; loc = Lconst 0L };
      sp = 0;
      homes;
      local_tys = all_locals;
      n_frame_locals;
      max_depth = 0;
      frames = [];
      fname = f.W.fname;
      epilogue;
      result_ty = (match ft.W.results with [] -> None | ty :: _ -> Some ty);
      fresh;
      saved_regs;
    }
  in
  emit ctx (X.Label ("f$" ^ f.W.fname));
  emit ctx (X.Push (X.Reg X.RBP));
  emit ctx (X.Mov (X.W64, X.Reg X.RBP, X.Reg X.RSP));
  (* wasm2c-style stack exhaustion check — a sandboxing cost Segue does
     not remove; native code has no equivalent. *)
  if cfg.strategy.Strategy.addressing <> Strategy.Direct then begin
    emit ctx (X.Cmp (X.W64, X.Reg X.RSP, X.Mem (fs_mem vmctx_stack_limit)));
    emit ctx (X.Jcc (X.B, "__trap_stack"))
  end;
  let frame_sub_idx = Vec.push code (X.Alu (X.Sub, X.W64, X.Reg X.RSP, X.Imm 0L)) in
  List.iter (fun r -> emit ctx (X.Push (X.Reg r))) saved_regs;
  (* Copy parameters into their homes: pushed left-to-right by the caller,
     so parameter i sits at [rbp + 16 + 8*(nparams-1-i)]. *)
  let nparams = List.length params in
  for i = 0 to nparams - 1 do
    let src = X.mem ~base:X.RBP ~disp:(16 + (8 * (nparams - 1 - i))) () in
    match homes.(i) with
    | Hreg r -> emit ctx (X.Mov (X.W64, X.Reg r, X.Mem src))
    | Hframe k ->
        emit ctx (X.Mov (X.W64, X.Reg scratch, X.Mem src));
        emit ctx (X.Mov (X.W64, X.Mem (frame_slot ctx k), X.Reg scratch))
  done;
  (* Zero the non-parameter locals, as Wasm requires. *)
  for i = nparams to n_locals - 1 do
    match homes.(i) with
    | Hreg r -> emit ctx (X.Alu (X.Xor, X.W32, X.Reg r, X.Reg r))
    | Hframe k -> emit ctx (X.Mov (X.W64, X.Mem (frame_slot ctx k), X.Imm 0L))
  done;
  (* The function body is one implicit block whose result is the return. *)
  let outer =
    {
      kind = `Block;
      branch_label = epilogue;
      end_label = epilogue;
      result = ctx.result_ty;
      entry_sp = 0;
    }
  in
  ctx.frames <- [ outer ];
  let terminated = compile_body ctx f.W.body in
  (if not terminated then
     match ctx.result_ty with
     | Some _ ->
         let d = ctx.sp - 1 in
         move_entry_into ctx X.RAX d (entry_at ctx d)
     | None -> ());
  emit ctx (X.Label epilogue);
  List.iter (fun r -> emit ctx (X.Pop r)) (List.rev saved_regs);
  emit ctx (X.Mov (X.W64, X.Reg X.RSP, X.Reg X.RBP));
  emit ctx (X.Pop X.RBP);
  emit ctx (X.Ret);
  (* Back-patch the frame size now that the deepest spill is known. *)
  let frame_bytes = 8 * (n_frame_locals + ctx.max_depth + 1) in
  Vec.set code frame_sub_idx (X.Alu (X.Sub, X.W64, X.Reg X.RSP, X.Imm (Int64.of_int frame_bytes)))

(* A br to the outer (function) frame must also place the result in RAX
   rather than a ring register. We handle this by treating the function
   body frame's branch label as the epilogue and patching move semantics:
   move_top_to targets ring.(0) = RAX for entry_sp = 0, which is exactly
   RAX. *)

(* ------------------------------------------------------------------ *)
(* Runtime builtins (trusted code).                                    *)
(* ------------------------------------------------------------------ *)

let emit_builtins code =
  let e i = ignore (Vec.push code i) in
  let mem = X.mem in
  (* __bulk_copy(dst=RDI, src=RSI, len=RDX): bounds-checks both ranges
     against the current memory size, converts the sandbox offsets to
     absolute pointers once, then runs a 16-byte vector loop with a byte
     tail. memmove semantics (backward copy when dst > src).

     The explicit range checks are required for correctness, not merely
     defence in depth: a zero-length copy performs no access, so the guard
     region can never catch [dst > memory_bytes] when [len = 0] — yet the
     spec traps whenever [dst + len] or [src + len] exceeds the memory
     size. The offsets arrive zero-extended from 32 bits, so the 64-bit
     address computation cannot wrap. *)
  e (X.Label "__bulk_copy");
  e (X.Lea (X.W64, X.R15, mem ~base:X.RDI ~index:(X.RDX, X.S1) ()));
  e (X.Cmp (X.W64, X.Reg X.R15, X.Mem (mem ~seg:X.FS ~disp:vmctx_memory_bytes ())));
  e (X.Jcc (X.A, "__trap_oob"));
  e (X.Lea (X.W64, X.R15, mem ~base:X.RSI ~index:(X.RDX, X.S1) ()));
  e (X.Cmp (X.W64, X.Reg X.R15, X.Mem (mem ~seg:X.FS ~disp:vmctx_memory_bytes ())));
  e (X.Jcc (X.A, "__trap_oob"));
  e (X.Mov (X.W64, X.Reg X.R15, X.Mem (mem ~seg:X.FS ~disp:vmctx_heap_base ())));
  e (X.Alu (X.Add, X.W64, X.Reg X.RDI, X.Reg X.R15));
  e (X.Alu (X.Add, X.W64, X.Reg X.RSI, X.Reg X.R15));
  e (X.Cmp (X.W64, X.Reg X.RDI, X.Reg X.RSI));
  e (X.Jcc (X.A, "__bc_bwd"));
  e (X.Label "__bc_fwd");
  e (X.Cmp (X.W64, X.Reg X.RDX, X.Imm 16L));
  e (X.Jcc (X.B, "__bc_fwd_tail"));
  e (X.Vload (X.XMM 0, mem ~base:X.RSI ()));
  e (X.Vstore (mem ~base:X.RDI (), X.XMM 0));
  e (X.Alu (X.Add, X.W64, X.Reg X.RSI, X.Imm 16L));
  e (X.Alu (X.Add, X.W64, X.Reg X.RDI, X.Imm 16L));
  e (X.Alu (X.Sub, X.W64, X.Reg X.RDX, X.Imm 16L));
  e (X.Jmp "__bc_fwd");
  e (X.Label "__bc_fwd_tail");
  e (X.Test (X.W64, X.Reg X.RDX, X.Reg X.RDX));
  e (X.Jcc (X.E, "__bc_done"));
  e (X.Movzx (X.W32, X.W8, X.R15, X.Mem (mem ~base:X.RSI ())));
  e (X.Mov (X.W8, X.Mem (mem ~base:X.RDI ()), X.Reg X.R15));
  e (X.Alu (X.Add, X.W64, X.Reg X.RSI, X.Imm 1L));
  e (X.Alu (X.Add, X.W64, X.Reg X.RDI, X.Imm 1L));
  e (X.Alu (X.Sub, X.W64, X.Reg X.RDX, X.Imm 1L));
  e (X.Jmp "__bc_fwd_tail");
  e (X.Label "__bc_bwd");
  e (X.Cmp (X.W64, X.Reg X.RDX, X.Imm 16L));
  e (X.Jcc (X.B, "__bc_bwd_tail"));
  e (X.Alu (X.Sub, X.W64, X.Reg X.RDX, X.Imm 16L));
  e (X.Vload (X.XMM 0, mem ~base:X.RSI ~index:(X.RDX, X.S1) ()));
  e (X.Vstore (mem ~base:X.RDI ~index:(X.RDX, X.S1) (), X.XMM 0));
  e (X.Jmp "__bc_bwd");
  e (X.Label "__bc_bwd_tail");
  e (X.Test (X.W64, X.Reg X.RDX, X.Reg X.RDX));
  e (X.Jcc (X.E, "__bc_done"));
  e (X.Alu (X.Sub, X.W64, X.Reg X.RDX, X.Imm 1L));
  e (X.Movzx (X.W32, X.W8, X.R15, X.Mem (mem ~base:X.RSI ~index:(X.RDX, X.S1) ())));
  e (X.Mov (X.W8, X.Mem (mem ~base:X.RDI ~index:(X.RDX, X.S1) ()), X.Reg X.R15));
  e (X.Jmp "__bc_bwd_tail");
  e (X.Label "__bc_done");
  e X.Ret;
  (* __bulk_fill(dst=RDI, byte=RSI, len=RDX): 8-byte stores of a replicated
     byte pattern plus a byte tail. The range check mirrors __bulk_copy's:
     without it a zero-length fill at an out-of-bounds address would
     silently succeed. *)
  e (X.Label "__bulk_fill");
  e (X.Lea (X.W64, X.R15, mem ~base:X.RDI ~index:(X.RDX, X.S1) ()));
  e (X.Cmp (X.W64, X.Reg X.R15, X.Mem (mem ~seg:X.FS ~disp:vmctx_memory_bytes ())));
  e (X.Jcc (X.A, "__trap_oob"));
  e (X.Mov (X.W64, X.Reg X.R15, X.Mem (mem ~seg:X.FS ~disp:vmctx_heap_base ())));
  e (X.Alu (X.Add, X.W64, X.Reg X.RDI, X.Reg X.R15));
  e (X.Alu (X.And, X.W64, X.Reg X.RSI, X.Imm 0xFFL));
  e (X.Mov (X.W64, X.Reg X.R15, X.Imm 0x0101010101010101L));
  e (X.Imul (X.W64, X.RSI, X.Reg X.R15));
  e (X.Label "__bf_loop");
  e (X.Cmp (X.W64, X.Reg X.RDX, X.Imm 8L));
  e (X.Jcc (X.B, "__bf_tail"));
  e (X.Alu (X.Sub, X.W64, X.Reg X.RDX, X.Imm 8L));
  e (X.Mov (X.W64, X.Mem (mem ~base:X.RDI ~index:(X.RDX, X.S1) ()), X.Reg X.RSI));
  e (X.Jmp "__bf_loop");
  e (X.Label "__bf_tail");
  e (X.Test (X.W64, X.Reg X.RDX, X.Reg X.RDX));
  e (X.Jcc (X.E, "__bf_done"));
  e (X.Alu (X.Sub, X.W64, X.Reg X.RDX, X.Imm 1L));
  e (X.Mov (X.W8, X.Mem (mem ~base:X.RDI ~index:(X.RDX, X.S1) ()), X.Reg X.RSI));
  e (X.Jmp "__bf_tail");
  e (X.Label "__bf_done");
  e X.Ret;
  (* Trap landing pads. *)
  e (X.Label "__trap_oob");
  e (X.Trap X.Trap_out_of_bounds);
  e (X.Label "__trap_table");
  e (X.Trap X.Trap_out_of_bounds);
  e (X.Label "__trap_sig");
  e (X.Trap X.Trap_indirect_call_type);
  e (X.Label "__trap_stack");
  e (X.Trap X.Trap_unreachable)

(* ------------------------------------------------------------------ *)
(* Entry sequences.                                                    *)
(* ------------------------------------------------------------------ *)

let emit_entry code cfg (m : W.module_) export_name fidx =
  let e i = ignore (Vec.push code i) in
  let label = "entry$" ^ export_name in
  e (X.Label label);
  let strategy = cfg.strategy in
  if Strategy.uses_segment strategy then begin
    e (X.Mov (X.W64, X.Reg X.RAX, X.Mem (fs_mem vmctx_heap_base)));
    e (X.Wrgsbase X.RAX)
  end;
  if Strategy.reserves_base_register strategy then
    e (X.Mov (X.W64, X.Reg X.R14, X.Mem (fs_mem vmctx_heap_base)));
  if cfg.colorguard then begin
    e (X.Mov (X.W64, X.Reg X.RAX, X.Mem (fs_mem vmctx_pkru_sandbox)));
    e X.Wrpkru
  end;
  e (X.Jmp (func_label m fidx));
  label

(* ------------------------------------------------------------------ *)
(* Module compilation.                                                 *)
(* ------------------------------------------------------------------ *)

let compile cfg (m : W.module_) =
  Sfi_wasm.Validate.validate_exn m;
  let m = if cfg.vectorize then Vectorize.apply cfg.strategy m else m in
  let code = Vec.create () in
  let fresh = ref 0 in
  let nimports = Array.length m.W.imports in
  (* Entry sequences first, then function bodies, then builtins. *)
  let entry_labels =
    List.map (fun (name, fidx) ->
        if fidx < nimports then invalid_arg "Codegen: cannot export an import";
        (name, emit_entry code cfg m name fidx))
      m.W.exports
  in
  (try Array.iter (fun f -> compile_func cfg m fresh code f) m.W.funcs
   with Unsupported msg -> invalid_arg ("Codegen: " ^ msg));
  emit_builtins code;
  let program = Vec.to_array code in
  (* Both tables start from a constant and are filled in place: [Array.init]
     or [Array.map] whose first element is fresh forces a minor collection
     once the array passes 256 words. *)
  let func_labels = Array.make (W.num_funcs m) "" in
  for idx = nimports to W.num_funcs m - 1 do
    func_labels.(idx) <- func_label m idx
  done;
  let table_entries = Array.make (Array.length m.W.table) ("", 0) in
  Array.iteri
    (fun i fidx ->
      if fidx < nimports then invalid_arg "Codegen: imports cannot be table entries";
      table_entries.(i) <- (func_label m fidx, m.W.funcs.(fidx - nimports).W.ftype))
    m.W.table;
  {
    program;
    config = cfg;
    source = m;
    entry_labels;
    func_labels;
    table_entries;
    code_bytes = Sfi_x86.Encode.program_length program;
  }
