(** The sim's ready set: which request slots may run now, and when the
    next one that may not will be due.

    Each slot has a due time. {!pick} finds the first slot due at or
    before the clock, searching cyclically from a cursor, in O(slots/32)
    word tests; {!next_ready_time} is the earliest due time still in the
    future, in O(1). Writes are O(log slots). Every answer is exactly a
    linear scan's over the slots' due times.

    The clock passed to {!set_due} and {!advance} must never decrease:
    a slot once due stays due until its time is written again. *)

type t

val create : slots:int -> procs:int -> t
(** [slots] slots, all due at infinity (never). Slot [i] belongs to
    process [i mod procs], which {!pick}'s [proc] filter reads. *)

val slots : t -> int

val due : t -> int -> float

val set_due : t -> int -> float -> now:float -> unit
(** [set_due t i at ~now]: slot [i] is next due at [at]; [now] is the
    clock. A slot due at [infinity] never becomes ready. *)

val advance : t -> now:float -> unit
(** Mark every slot due at or before [now] ready. Call before {!pick}
    whenever the clock may have moved. *)

val pick : t -> cursor:int -> proc:int -> int
(** The first ready slot at or after [cursor], wrapping round to the
    slots before it, that belongs to process [proc] ([proc < 0]: any);
    [-1] if none. [cursor] is in [[0, slots]]. *)

val next_ready_time : t -> float
(** The earliest due time among the slots that are not ready, or
    [infinity]. When no slot is ready, this is the earliest due time of
    all. *)
