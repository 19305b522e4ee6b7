(** A small data-TLB model.

    Figure 7b explains multiprocess scaling's throughput loss partly through
    dTLB misses: every OS process switch flushes the TLB, while ColorGuard's
    in-process transitions keep it warm. We model a set-associative TLB with
    LRU replacement; a miss costs a page walk whose latency depends on the
    paging depth (4-level vs 5-level — §8's 57-bit address-space
    discussion).

    Entries carry an integer payload. The machine stores each page's
    protection bits and MPK key there, mirroring hardware: permissions and
    the key are cached in the TLB entry, while the PKRU check happens on
    every access against the cached key. *)

type config = {
  entries : int;  (** total entries, e.g. 64 *)
  ways : int;  (** associativity, e.g. 4 *)
  page_walk_levels : int;  (** 4 (48-bit VA) or 5 (57-bit VA) *)
  walk_cycles_per_level : int;  (** cycles per level, e.g. 5 *)
}

type t = {
  config : config;
  sets : int;  (** [entries / ways]; a page's set is [page mod sets] *)
  tags : int array;
      (** [tags.(set * ways + way)]: the page cached in that slot, -1 if
          never filled. A {!flush} leaves tags in place. *)
  payloads : int array;
  stamps : int array;  (** LRU stamps; larger is more recent *)
  mutable clock : int;  (** the last stamp given out *)
  mutable floor : int;  (** a slot is valid iff its stamp is above this *)
  mutable hits : int;
  mutable misses : int;
  mutable trace : Sfi_trace.Trace.t;
}
(** Concrete so that a caller can run the pinned-slot hit path (see
    {!holds} and {!touch}) as straight-line code in its own unit: the
    machine does, on every memory access. Everything else — lookups,
    fills, flushes, counter resets — goes through the functions below,
    and only {!touch}'s three writes may be copied: [clock], [hits] and
    the slot's stamp. *)

val default_config : config
(** 64-entry, 4-way, 4-level walk. *)

val create : config -> t

val lookup : t -> page:int -> int option
(** [lookup t ~page] returns the cached payload on a hit (updating recency)
    or [None] on a miss. The caller walks the page table, charges
    {!walk_cost}, and {!fill}s. *)

val fill : t -> page:int -> payload:int -> unit
(** Insert a translation, evicting the set's LRU entry if needed. The fill
    is itself a recency event: the inserted line is stamped strictly newer
    than every line touched before it. *)

val lookup_slot : t -> page:int -> int
(** Like {!lookup} but returns the entry's slot index on a hit and -1 on a
    miss, without allocating. Callers read the payload with {!payload} and
    can pin a hot translation and re-touch it cheaply via {!touch} without
    a full set scan. Counter effects are identical to {!lookup}. *)

val payload : t -> slot:int -> int
(** The payload cached in [slot]. *)

val fill_slot : t -> page:int -> payload:int -> int
(** Like {!fill} but returns the slot index the translation landed in. *)

val holds : t -> slot:int -> page:int -> bool
(** Is [slot] still caching the translation for [page]? False once the
    entry is evicted. A single tag compare: [t.tags.(slot) = page].

    Pinning invariant: [holds] does {e not} see a {!flush}, which leaves
    tags in place. A caller that pins slots in a front cache (the
    machine's page and line caches) must drop every pin when it flushes,
    so [holds] is only ever asked about a slot returned by {!lookup_slot}
    or {!fill_slot} since the last flush. *)

val touch : t -> slot:int -> unit
(** Record a repeat hit on a pinned slot: [clock <- clock + 1],
    [hits <- hits + 1], [stamps.(slot) <- clock] — exactly what {!lookup}
    would do on a hit, minus the set scan. Only call when {!holds} is
    true.

    [holds] and [touch] define the pinned hit path. A caller that inlines
    it on the record's fields must match them exactly, in that order of
    effects; a differential test against {!lookup_slot} on every access
    (the machine's page-cache differential) holds it to this. *)

val walk_cost : t -> int
(** Cycles for one page walk under this configuration. *)

val flush : t -> unit
(** Full flush — what a CR3 write (process context switch) does.
    ColorGuard transitions never call this. O(1): it raises a stamp floor
    instead of clearing the entries, and slots stamped at or below the
    floor count as invalid (a miss to {!lookup_slot}, the preferred victim
    of {!fill_slot}, no [tlb.evict] event). Hits, misses, slot choice and
    trace events are exactly those of clearing every entry. See {!holds}
    for what a front cache must do alongside. *)

val misses : t -> int
val hits : t -> int
val reset_counters : t -> unit

val set_trace : t -> Sfi_trace.Trace.t -> unit
(** Attach a trace sink. Fills then emit a [tlb.fill] event (and a
    [tlb.evict] for the displaced entry when the victim way was valid)
    on the machine track; the sink's clock supplies timestamps. The
    default sink is {!Sfi_trace.Trace.null}, which costs one branch per
    fill. *)
