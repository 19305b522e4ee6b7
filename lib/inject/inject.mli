(** Sandbox fault-injection containment harness.

    Attacks the isolation claim from the attacker's side: compiles a small
    attack module under each SFI strategy, synthesizes escape attempts by
    mutating the compiled program — memory operands rewritten out of the
    slot, guard instructions deleted, the trusted entry sequence corrupted,
    the neighbour slot's stripe targeted directly — and executes each
    mutant on the simulated machine against a ColorGuard-striped pool
    holding a victim instance with a planted canary.

    Every attempt must be {!Contained} (trapped) or {!Diverged}; an
    {!Escaped} outcome — the mutant read or overwrote the victim's canary —
    is a containment failure, and the test suite treats it as fatal. *)

(** Outcome of one escape attempt. *)
type outcome =
  | Contained of Sfi_x86.Ast.trap_kind
      (** the machine trapped before any cross-sandbox effect *)
  | Escaped of string
      (** the victim's canary was read or overwritten — isolation broke *)
  | Diverged of string
      (** neither: fuel ran out, or the mutant completed without reaching
          the victim (e.g. a rewrite that stayed in bounds) *)

type attempt = {
  a_class : string;  (** mutation class (operand-rewrite, guard-strip, …) *)
  a_desc : string;  (** what was mutated, for diagnostics *)
  a_entry : string;  (** export driven against the mutant *)
  outcome : outcome;
}

type report = { strategy_name : string; attempts : attempt list }
type tally = { contained : int; escaped : int; diverged : int }

val strategies : (string * Sfi_core.Strategy.t) list
(** The five configurations under attack: segue, segue-loads, base-reg,
    bounds-check, mask — all compiled with ColorGuard entry sequences and
    run in a striped pool. *)

val run_strategy : string -> Sfi_core.Strategy.t -> report
(** Compile the attack module under the strategy and run every mutation
    class against a fresh engine per mutant. *)

val tally : report -> tally
val escapes : report -> attempt list

val self_test : unit -> (unit, string) result
(** Prove the harness can observe a real escape: (1) map a host page inside
    a guard window that should be unmapped — the probe must classify
    [Escaped]; (2) swap the sandbox PKRU image for the permissive host
    image in the entry sequence — the neighbour probe must classify
    [Escaped]. [Error] means the harness is blind and its zero-escape
    results are meaningless. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
(** One summary line, plus a line per escaped attempt. *)
