(** Cross-layer differential fuzzer.

    Every execution path this repository implements is a semantics for the
    same mini-Wasm language: the reference interpreter
    ({!Sfi_wasm.Interp}), the {!Sfi_core.Codegen} lowerings under each of
    the six SFI strategies executed by both machine engines (the step
    reference, and the compiled engine with and without a live trace
    sink), and the LFI rewriter applied to the native lowering. This
    module generates seeded random programs over the full op set —
    loads/stores of every width with boundary-hugging addresses, bulk
    memory ops, [memory.grow], [br_table], [call_indirect] with
    out-of-bounds and type-mismatching indices — and runs each program
    through every semantics, comparing results, trap kinds, final linear
    memories, memory sizes, globals, and (within a strategy) the
    bit-identical performance counters every engine arm must agree on.

    Compiled runs execute with the runtime's SFI sanitizer armed
    ({!Sfi_runtime.Runtime.arm_sanitizer}), so an access that escapes the
    sandbox into {e mapped} neighbour memory — invisible to a differential
    check — is reported at the faulting instruction.

    Divergences are auto-minimized by a delta-debugging shrinker over the
    Wasm AST and are replayable from their seed alone. *)

(** {1 Program generation} *)

type program = {
  p_seed : int64;
  p_module : Sfi_wasm.Ast.module_;
  p_args : Sfi_wasm.Ast.value list;  (** arguments for the [run] export *)
  p_tame : bool;
      (** all addresses masked in-bounds and indirect calls well-typed —
          the subset also run through the LFI oracle, whose native arm has
          no bounds to trap on *)
}

val generate : int64 -> program
(** Deterministic: equal seeds yield equal programs. *)

(** {1 The differential oracle} *)

type check_result = {
  executions : int;  (** semantics actually run (interp + 6x2 + LFI arms) *)
  interp_trapped : bool;
  skipped : bool;
      (** the interpreter ran out of fuel; the program was not compared *)
  failure : (string * string) option;
      (** [(oracle, detail)]: which comparison failed and how *)
}

val check_module :
  ?sanitizer:bool ->
  ?churn:bool ->
  lfi:bool ->
  Sfi_wasm.Ast.module_ ->
  Sfi_wasm.Ast.value list ->
  check_result
(** Run one module through every semantics and compare. [sanitizer]
    (default true) arms the runtime SFI sanitizer on compiled runs.
    [churn] (default true) adds a lifecycle arm: run, then
    instantiate/kill/recycle the slot and run again on the recycled slot,
    which must stay indistinguishable from a fresh instantiation. [lfi]
    adds the native / LFI / LFI+Segue triple (only sound for tame
    programs). *)

val check_program : ?sanitizer:bool -> ?churn:bool -> program -> check_result

(** {1 Minimization} *)

val module_size : Sfi_wasm.Ast.module_ -> int
(** Total instruction count across all function bodies. *)

val minimize :
  ?budget:int ->
  reproduces:(Sfi_wasm.Ast.module_ -> bool) ->
  Sfi_wasm.Ast.module_ ->
  Sfi_wasm.Ast.module_
(** Delta-debugging shrink: chunk removal over every body (halving chunk
    sizes), recursive descent into block/loop/if arms, structural
    simplification, and constant shrinking — greedy first-improvement to a
    fixpoint or until [budget] (default 300) predicate evaluations.
    Candidates that fail validation are discarded ([reproduces] exceptions
    count as "not reproduced"). *)

(** {1 Corpus runs} *)

type divergence = {
  d_seed : int64;
  d_oracle : string;
  d_detail : string;
  d_module : Sfi_wasm.Ast.module_;  (** minimized *)
  d_original_size : int;
}

type report = {
  r_programs : int;
  r_executions : int;
  r_interp_traps : int;
  r_lfi_programs : int;
  r_skipped : int;
  r_divergences : divergence list;
}

val run_corpus :
  ?sanitizer:bool ->
  ?churn:bool ->
  ?minimize_failures:bool ->
  ?progress:(int -> unit) ->
  seed:int64 ->
  count:int ->
  unit ->
  report
(** Check [count] programs with per-program seeds [seed + i], so any
    divergence replays from its own seed. *)

val replay : ?sanitizer:bool -> ?churn:bool -> Format.formatter -> int64 -> check_result
(** Regenerate the program for a seed, print it, re-run the full oracle,
    and report. *)

(** {1 Sanitizer self-test}

    Deliberately weakened configurations that the sanitizer — and nothing
    else — must catch, mirroring the fault-injection harness's self-test:
    a guard-region hole (an rw page mapped inside the reservation past the
    memory bound, silently writable without the sanitizer) and a swapped
    PKRU image under ColorGuard (the entry sequence installs allow-all
    instead of the sandbox's color). Each weakening runs on both machine
    engines, which must report identical violations (every field but
    the free-text detail, the retired-instruction count included). *)

val self_test : unit -> (string, string) result

(** {1 Printers} *)

val pp_module : Format.formatter -> Sfi_wasm.Ast.module_ -> unit
val pp_divergence : Format.formatter -> divergence -> unit
val pp_report : Format.formatter -> report -> unit
