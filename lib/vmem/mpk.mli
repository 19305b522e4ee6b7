(** Memory Protection Keys (Intel MPK / ARM POE model).

    A 4-bit key ("color") lives in each page's metadata; the per-thread
    [pkru] register holds two bits per key — access-disable (AD) and
    write-disable (WD). Updating pkru is an unprivileged ~40-cycle
    instruction ([wrpkru]), which is what makes ColorGuard's per-transition
    color switch cheap (§3.2, §6.4.1). *)

type pkru = int
(** 32-bit PKRU image: bit [2k] = AD for key [k], bit [2k+1] = WD. *)

val num_keys : int
(** 16 keys; key 0 is the default color of all non-sandbox memory. *)

val max_usable_keys : int
(** 15 — every key except the default 0 (the paper's "up to 15x"). *)

val default_key : int

val allow_all : pkru
(** No restrictions (pkru = 0). *)

val allow_only : int list -> pkru
(** [allow_only keys] permits read+write exactly on [keys] (key 0 should
    normally be included so runtime memory stays reachable) and disables
    access to every other key. Raises [Invalid_argument] on keys outside
    [0, 15]. *)

val allow_default_and : int -> pkru
(** [allow_default_and k] is [allow_only [default_key; k]] without the
    list: a sandbox's image, built on every call entry. *)

val allows : pkru -> key:int -> write:bool -> bool
(** Permission check the hardware performs on every data access to a page
    with color [key]. MPK also blocks speculative accesses, so this is the
    complete isolation story for loads (§3.2). *)

val pp : Format.formatter -> pkru -> unit
