(** Instruction length model.

    Segue's costs and benefits both show up in code bytes: it halves the
    number of instructions per sandboxed memory access (Table 2's 5.9%
    median binary-size reduction) but each remaining instruction is longer
    (segment-override prefix, address-size override prefix) — the source of
    the 473_astar outlier (§6.1). This module computes byte-accurate-enough
    lengths following the x86-64 encoding rules: legacy prefixes, REX,
    opcode, ModRM, SIB, displacement, immediate.

    We do not emit actual machine code (nothing executes it — the machine
    interprets the AST); only lengths are needed, for binary-size reporting
    and for the frontend fetch/decode cost model. *)

val instr_length : Ast.instr -> int
(** Encoded length in bytes. [Label] is 0. *)

val program_length : Ast.program -> int
(** Total code bytes of a program. *)

val layout : Ast.program -> int array
(** [layout p] gives the byte offset of each instruction (array index =
    instruction index). Labels share the offset of the following
    instruction. The machine uses this to give instructions addresses so
    that indirect control flow (and LFI's masking of it) operates on
    realistic code addresses. *)
