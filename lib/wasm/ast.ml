type valty = I32 | I64

let valty_name = function I32 -> "i32" | I64 -> "i64"

type value = V_i32 of int32 | V_i64 of int64

let value_ty = function V_i32 _ -> I32 | V_i64 _ -> I64

let pp_value ppf = function
  | V_i32 v -> Format.fprintf ppf "%ld:i32" v
  | V_i64 v -> Format.fprintf ppf "%Ld:i64" v

type functype = { params : valty list; results : valty list }

let pp_functype ppf { params; results } =
  let names tys = String.concat " " (List.map valty_name tys) in
  Format.fprintf ppf "[%s] -> [%s]" (names params) (names results)

type sx = Signed | Unsigned
type pack = P8 | P16 | P32
type memarg = { offset : int }

type binop =
  | Add | Sub | Mul
  | Div_s | Div_u | Rem_s | Rem_u
  | And | Or | Xor
  | Shl | Shr_s | Shr_u
  | Rotl | Rotr

type relop = Eq | Ne | Lt_s | Lt_u | Gt_s | Gt_u | Le_s | Le_u | Ge_s | Ge_u

type cvtop = I32_wrap_i64 | I64_extend_i32_s | I64_extend_i32_u

type blockty = valty option

type instr =
  | Unreachable
  | Nop
  | Const of value
  | Binop of valty * binop
  | Relop of valty * relop
  | Eqz of valty
  | Cvt of cvtop
  | Clz of valty
  | Ctz of valty
  | Popcnt of valty
  | Drop
  | Select
  | Local_get of int
  | Local_set of int
  | Local_tee of int
  | Global_get of int
  | Global_set of int
  | Load of valty * (pack * sx) option * memarg
  | Store of valty * pack option * memarg
  | Memory_size
  | Memory_grow
  | Memory_copy
  | Memory_fill
  | Block of blockty * instr list
  | Loop of blockty * instr list
  | If of blockty * instr list * instr list
  | Br of int
  | Br_if of int
  | Br_table of int list * int
  | Return
  | Call of int
  | Call_indirect of int

type func = { ftype : int; locals : valty list; body : instr list; fname : string }

type memory = { min_pages : int; max_pages : int option }

let page_size = 65536

type global = { gtype : valty; gmutable : bool; ginit : value }

type data_segment = { doffset : int; dbytes : string }

type import = { iname : string; itype : int }

type module_ = {
  types : functype array;
  imports : import array;
  funcs : func array;
  memory : memory option;
  globals : global array;
  table : int array;
  data : data_segment list;
  exports : (string * int) list;
  start : int option;
}

let empty_module =
  {
    types = [||];
    imports = [||];
    funcs = [||];
    memory = None;
    globals = [||];
    table = [||];
    data = [];
    exports = [];
    start = None;
  }

let func_index_of_export m name = List.assoc name m.exports

let num_funcs m = Array.length m.imports + Array.length m.funcs

let type_of_func m idx =
  let nimports = Array.length m.imports in
  if idx < 0 || idx >= num_funcs m then
    invalid_arg (Printf.sprintf "Ast.type_of_func: index %d out of range" idx)
  else if idx < nimports then m.types.(m.imports.(idx).itype)
  else m.types.(m.funcs.(idx - nimports).ftype)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul"
  | Div_s -> "div_s" | Div_u -> "div_u" | Rem_s -> "rem_s" | Rem_u -> "rem_u"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr_s -> "shr_s" | Shr_u -> "shr_u"
  | Rotl -> "rotl" | Rotr -> "rotr"

let relop_name = function
  | Eq -> "eq" | Ne -> "ne"
  | Lt_s -> "lt_s" | Lt_u -> "lt_u" | Gt_s -> "gt_s" | Gt_u -> "gt_u"
  | Le_s -> "le_s" | Le_u -> "le_u" | Ge_s -> "ge_s" | Ge_u -> "ge_u"

let pp_instr ppf = function
  | Unreachable -> Format.pp_print_string ppf "unreachable"
  | Nop -> Format.pp_print_string ppf "nop"
  | Const v -> Format.fprintf ppf "%s.const %a" (valty_name (value_ty v)) pp_value v
  | Binop (ty, op) -> Format.fprintf ppf "%s.%s" (valty_name ty) (binop_name op)
  | Relop (ty, op) -> Format.fprintf ppf "%s.%s" (valty_name ty) (relop_name op)
  | Eqz ty -> Format.fprintf ppf "%s.eqz" (valty_name ty)
  | Cvt I32_wrap_i64 -> Format.pp_print_string ppf "i32.wrap_i64"
  | Cvt I64_extend_i32_s -> Format.pp_print_string ppf "i64.extend_i32_s"
  | Cvt I64_extend_i32_u -> Format.pp_print_string ppf "i64.extend_i32_u"
  | Clz ty -> Format.fprintf ppf "%s.clz" (valty_name ty)
  | Ctz ty -> Format.fprintf ppf "%s.ctz" (valty_name ty)
  | Popcnt ty -> Format.fprintf ppf "%s.popcnt" (valty_name ty)
  | Drop -> Format.pp_print_string ppf "drop"
  | Select -> Format.pp_print_string ppf "select"
  | Local_get i -> Format.fprintf ppf "local.get %d" i
  | Local_set i -> Format.fprintf ppf "local.set %d" i
  | Local_tee i -> Format.fprintf ppf "local.tee %d" i
  | Global_get i -> Format.fprintf ppf "global.get %d" i
  | Global_set i -> Format.fprintf ppf "global.set %d" i
  | Load (ty, None, { offset }) -> Format.fprintf ppf "%s.load offset=%d" (valty_name ty) offset
  | Load (ty, Some (p, s), { offset }) ->
      let bits = match p with P8 -> 8 | P16 -> 16 | P32 -> 32 in
      let sx = match s with Signed -> "s" | Unsigned -> "u" in
      Format.fprintf ppf "%s.load%d_%s offset=%d" (valty_name ty) bits sx offset
  | Store (ty, None, { offset }) -> Format.fprintf ppf "%s.store offset=%d" (valty_name ty) offset
  | Store (ty, Some p, { offset }) ->
      let bits = match p with P8 -> 8 | P16 -> 16 | P32 -> 32 in
      Format.fprintf ppf "%s.store%d offset=%d" (valty_name ty) bits offset
  | Memory_size -> Format.pp_print_string ppf "memory.size"
  | Memory_grow -> Format.pp_print_string ppf "memory.grow"
  | Memory_copy -> Format.pp_print_string ppf "memory.copy"
  | Memory_fill -> Format.pp_print_string ppf "memory.fill"
  | Block (_, body) -> Format.fprintf ppf "block ... (%d instrs)" (List.length body)
  | Loop (_, body) -> Format.fprintf ppf "loop ... (%d instrs)" (List.length body)
  | If (_, t, e) ->
      Format.fprintf ppf "if ... (%d then, %d else)" (List.length t) (List.length e)
  | Br n -> Format.fprintf ppf "br %d" n
  | Br_if n -> Format.fprintf ppf "br_if %d" n
  | Br_table (targets, default) ->
      Format.fprintf ppf "br_table [%s] %d"
        (String.concat " " (List.map string_of_int targets))
        default
  | Return -> Format.pp_print_string ppf "return"
  | Call i -> Format.fprintf ppf "call %d" i
  | Call_indirect i -> Format.fprintf ppf "call_indirect (type %d)" i


