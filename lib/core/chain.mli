(** Heterogeneous sandbox chains (§3.2's closing idea).

    The basic ColorGuard stripe assumes equal slots, which forces the
    stride up to [needed_distance / num_colors] and needs a guard region
    whenever 15 consecutive sandboxes are smaller than the isolation
    distance. The paper notes that "a Wasm runtime could also potentially
    chain sandboxes of different sizes to efficiently use colors and
    possibly eliminate the second case".

    This module implements that planner: slots of arbitrary (Wasm-page
    aligned) sizes are packed contiguously, each colored greedily with the
    first color whose previous slot is already at least the isolation
    distance behind; padding is inserted only when no color is free.
    Large slots naturally advance every color's eligibility, so mixed
    populations pack with almost no padding. *)

type placement = {
  offset : int;  (** byte offset of the slot's linear memory in the chain *)
  size : int;  (** the slot's linear-memory size *)
  color : int;  (** MPK color, 1-based *)
}

type t = {
  placements : placement list;  (** in input order *)
  total_bytes : int;  (** chain footprint including padding + trailing guard *)
  padding_bytes : int;  (** padding inserted when no color was free *)
  reach : int;  (** the isolation distance used *)
}

val plan :
  ?num_keys:int -> reach:int -> sizes:int list -> unit -> (t, string) result
(** Plan a chain. [reach] is the distance an out-of-bounds access from a
    slot may span (its addressing window plus guard — e.g. 4 GiB + guard
    for wasm32); two same-colored slots are never placed closer than
    [reach]. [num_keys] defaults to the 15 usable MPK colors. Sizes must be
    positive multiples of the Wasm page size. A trailing guard of [reach]
    bytes protects the final slots. *)

val utilization : t -> float
(** Linear-memory bytes divided by the total footprint. *)

val check : t -> (unit, string) result
(** Re-verify the isolation property (the invariant-checker analogue for
    chains): every same-colored pair is at least [reach] apart and no two
    slots overlap. *)

val uniform_stripe_footprint : num_keys:int -> reach:int -> sizes:int list -> int
(** Footprint of the same population under uniform striping (every slot
    padded to the stride the largest member forces) — the baseline the
    chain improves on. *)
