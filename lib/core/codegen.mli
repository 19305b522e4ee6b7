(** The SFI compiler: mini-Wasm to simulated x86-64, under a {!Strategy}.

    This is the repository's implementation of the paper's Figure 1. The
    lowering is a one-pass stack compiler with lazy address expressions
    ("addressing-mode selection"), so the strategies differ exactly where
    the paper says they do:

    - {b Reserved_base} keeps the heap base in [%r14]. A memory operand can
      fold at most one {e clean} (zero-extended) index register and a small
      non-negative displacement — [mov r, \[r14 + ri + disp\]] — because the
      base slot is occupied; any richer address expression (two registers, a
      scaled index, a truncated i64) costs an extra 32-bit [lea]
      (Figure 1b). [%r14] is also removed from the local-variable register
      pool, raising register pressure.
    - {b Segment} (Segue) holds the heap base in [%gs] and emits
      [mov r, gs:\[e1 + e2*s + d\]] with the address-size override: the full
      expression folds, the truncation is free, and [%r14] returns to the
      register allocator (Figure 1c).
    - {b Segment_loads_only} applies the Segue encoding to loads only;
      stores keep the reserved-base scheme (and the base register stays
      reserved) — WAMR's shipping configuration (§4.2).
    - {b Direct} is the native baseline: full folding, no prefixes, no
      reserved register, addresses treated as absolute pointers.

    Bounds modes: [Guard_region] emits no per-access code (the 4 GiB
    window + guard pages trap); [Explicit_check] materializes the 32-bit
    index, compares it against the memory bound held in the instance
    context (addressed via [%fs]), and — without Segue — pays a separate
    base-addition instruction, the instruction Segue eliminates (§6.1's
    bounds-check experiment); [Mask] ANDs the index with the region mask.

    Instance context (vmctx) is addressed through [%fs] (the TLS-style
    segment the OS owns, §3.1 "Other considerations"): byte 0 holds the
    current memory size, byte 8 the heap base, bytes 16/24 the sandbox/host
    PKRU images, and globals start at byte 32. *)

type config = {
  strategy : Strategy.t;
  table_base : int;
      (** absolute address of the indirect-call table (8-byte code
          addresses); shared across instances of a module *)
  table_types_base : int;
      (** absolute address of the parallel type-id array (4 bytes each) *)
  vectorize : bool;
      (** run the WAMR-style {!Vectorize} pass before lowering *)
  colorguard : bool;
      (** emit the MPK domain switch ([wrpkru]) in entry sequences *)
  lfi_reserve_base : bool;
      (** keep [%r14] out of the register allocator even under [Direct]
          addressing — LFI input programs must leave the region base
          register free for the rewriter (§4.3) *)
  segue_cost_function : bool;
      (** the paper's future-work idea for the astar outlier (§6.1): under
          [Segment_loads_only], pick per access between the gs form and the
          reserved-base form by encoded size. No effect on strategies that
          free the base register. *)
}

val default_config : ?strategy:Strategy.t -> unit -> config
(** [table_base] 0x30000000, [table_types_base] 0x31000000, vectorize off,
    colorguard off, strategy {!Strategy.wasm_default}. *)

(** vmctx field offsets (relative to the [%fs] base). *)
val vmctx_memory_bytes : int
val vmctx_heap_base : int
val vmctx_pkru_sandbox : int
val vmctx_pkru_host : int
val vmctx_stack_limit : int
val vmctx_globals : int

(** Hostcall numbers above this are runtime builtins, not imports. *)
val hostcall_memory_grow : int

type compiled = {
  program : Sfi_x86.Ast.program;
  config : config;
  source : Sfi_wasm.Ast.module_;  (** post-vectorization module *)
  entry_labels : (string * string) list;  (** export name -> entry label *)
  func_labels : string array;  (** per function index (imports have "") *)
  table_entries : (string * int) array;
      (** per table slot: (function label, type id) — the loader resolves
          labels to code addresses and writes both arrays *)
  code_bytes : int;
}

val compile : config -> Sfi_wasm.Ast.module_ -> compiled
(** Validates, optionally vectorizes, and lowers the module. Raises
    [Invalid_argument] on invalid modules or unsupported shapes (e.g. an
    import with more than three parameters). *)
