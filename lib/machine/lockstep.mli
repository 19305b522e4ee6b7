(** Lockstep differential validation of the [Compiled] engine against the
    [Reference] oracle.

    Builds two identically-configured machines from the caller's [make]
    thunk, runs one on {!Machine.Reference} and the other on
    {!Machine.Compiled}, advances both in [stride]-instruction slices
    ([run ~fuel:stride], default 1) and compares the full
    {!Machine.snapshot} — registers, flags, segment bases, PKRU, pc, and
    every performance counter including dTLB and dcache statistics — after
    each slice. The first disagreement is reported with the step number
    and field; agreement through termination proves the engines
    observationally identical on that program.

    A stride of 1 makes every dispatch of the compiled engine a one-slot
    range, entered at any slot of its block; strides > 1 also run
    multi-slot ranges, split wherever a slice edge falls, and every slice
    edge is a dispatch boundary at which batched charges must have
    converged with the oracle. *)

type divergence = {
  at_step : int;  (** instruction index at which the engines disagreed *)
  field : string;  (** snapshot field (or "status") that differs *)
  reference : string;  (** value under [Reference] *)
  candidate : string;  (** value under [Compiled] *)
}

val run_pair :
  ?stride:int ->
  make:(unit -> Machine.t) ->
  entry:string ->
  ?fuel:int ->
  unit ->
  (Machine.status, divergence) result
(** [run_pair ~make ~entry ()] validates up to [fuel] (default 2^20)
    instructions. [make] must return a fully set-up machine — program
    loaded, stack mapped, registers/hostcall handler initialized — and is
    called twice, so it must not share mutable state (notably the
    {!Sfi_vmem.Space.t}) between calls. Returns the common final status, or
    the first divergence. Raises [Invalid_argument] if [stride <= 0]. *)

val pp_divergence : Format.formatter -> divergence -> unit
