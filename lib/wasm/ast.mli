(** Mini-WebAssembly abstract syntax.

    A faithful subset of the Wasm MVP plus bulk-memory operations: the
    integer value types, full integer arithmetic, loads/stores with static
    offsets (the "two 32-bit unsigned operands" of §2 whose sum is a 33-bit
    address), structured control flow, direct and indirect calls, globals,
    and a single linear memory of 64 KiB pages.

    Floating point is omitted: none of the paper's SFI machinery touches
    float values (SFI instruments memory accesses and control flow), and
    the benchmark kernels exercise the memory system with integers.

    The module is the unit of compilation for the SFI compilers in
    {!Sfi_core} and of interpretation in {!Interp}. *)

type valty = I32 | I64

val valty_name : valty -> string

type value = V_i32 of int32 | V_i64 of int64

val value_ty : value -> valty
val pp_value : Format.formatter -> value -> unit

type functype = { params : valty list; results : valty list }
(** At most one result, as in the Wasm MVP. *)

val pp_functype : Format.formatter -> functype -> unit

(** Sign extension mode for packed loads. *)
type sx = Signed | Unsigned

(** Packed widths for narrow loads/stores. [P32] is only valid on i64. *)
type pack = P8 | P16 | P32

type memarg = { offset : int }
(** Static offset added to the dynamic i32 address (both unsigned); the
    33-bit sum is what guard-region SFI relies on (§2). *)

type binop =
  | Add | Sub | Mul
  | Div_s | Div_u | Rem_s | Rem_u
  | And | Or | Xor
  | Shl | Shr_s | Shr_u
  | Rotl | Rotr

type relop = Eq | Ne | Lt_s | Lt_u | Gt_s | Gt_u | Le_s | Le_u | Ge_s | Ge_u

(** Conversions between the two integer types. *)
type cvtop =
  | I32_wrap_i64
  | I64_extend_i32_s
  | I64_extend_i32_u

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
  | Memory_copy  (** bulk-memory: overlap-safe copy (dst, src, len) *)
  | Memory_fill  (** bulk-memory: fill (dst, byte, len) *)
  | Block of blockty * instr list
  | Loop of blockty * instr list
  | If of blockty * instr list * instr list
  | Br of int
  | Br_if of int
  | Br_table of int list * int
  | Return
  | Call of int
  | Call_indirect of int  (** type index; operand is the table element index *)

type func = {
  ftype : int;  (** index into [types] *)
  locals : valty list;  (** in addition to parameters *)
  body : instr list;
  fname : string;  (** used for code labels and diagnostics *)
}

type memory = { min_pages : int; max_pages : int option }

val page_size : int
(** 65536 — the Wasm page size. *)

type global = { gtype : valty; gmutable : bool; ginit : value }

type data_segment = { doffset : int; dbytes : string }

type import = { iname : string; itype : int }
(** Imported (host) functions occupy the first function indices, as in real
    Wasm. The SFI compilers lower calls to them as [Hostcall] transitions
    out of the sandbox. *)

type module_ = {
  types : functype array;
  imports : import array;
  funcs : func array;
  memory : memory option;
  globals : global array;
  table : int array;  (** function indices, for [Call_indirect] *)
  data : data_segment list;
  exports : (string * int) list;  (** export name -> function index *)
  start : int option;
}

val empty_module : module_

val func_index_of_export : module_ -> string -> int
(** Raises [Not_found]. *)

val type_of_func : module_ -> int -> functype
(** Function type by function index (imports first). Raises
    [Invalid_argument] on out-of-range indices. *)

val num_funcs : module_ -> int
(** Imports + locally defined functions. *)

val pp_instr : Format.formatter -> instr -> unit
