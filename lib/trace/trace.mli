(** Low-overhead structured tracing for the simulated SFI stack.

    A {!t} is an event sink. The default sink, {!null}, is permanently
    disabled: every emitter is a single load-and-branch, so instrumented
    code pays nothing when tracing is off. {!create_ring} builds an
    enabled sink backed by integer arrays — emitting an event is a
    handful of array stores, and allocates only when the ring grows. When the
    ring fills up the earliest events are kept and later ones are
    counted in {!dropped}, so span nesting of the captured prefix stays
    well-formed.

    Timestamps come from a settable {e clock} closure returning
    monotonic simulated nanoseconds. The machine installs a clock
    derived from its cycle counter; the FaaS simulator installs its own
    global clock for request spans. Tracks identify sandboxes (or
    tenants): track [-1] is the machine itself, tracks [>= 0] are
    sandbox slot ids.

    The event vocabulary is fixed (see the emitters below):
    transition spans and hostcall classes, instance lifecycle,
    faults with address attribution, pkru writes, TLB fill/evict, fuel
    checkpoints, FaaS request spans, admission decisions
    (admit/queue/shed with sojourn time), circuit-breaker transitions,
    and degradation-ladder steps. Exports: Chrome
    [trace_event] JSON loadable in Perfetto ({!to_chrome_json}),
    span-latency percentiles ({!summaries}), and Prometheus-style text
    exposition ({!prometheus}). *)

type t
(** An event sink: either the disabled {!null} sink or a ring buffer. *)

val null : t
(** The disabled sink. Emitting into it is a no-op; [enabled null] is
    [false]. This is the default everywhere tracing can be attached. *)

val create_ring : ?capacity:int -> unit -> t
(** A fresh enabled ring sink. [capacity] (default [65536]) bounds the
    number of retained events. Storage starts at 1,024 events (or
    [capacity], if smaller) and doubles as the ring fills, up to
    [capacity]; once grown, emitting never allocates. *)

val create_tail_ring : ?capacity:int -> unit -> t
(** A keep-last ring: once full, each new event overwrites the oldest
    one (still counted in {!dropped}), so the sink always holds the most
    recent [capacity] (default [256]) events, all allocated up front.
    This is the flight recorder's backing store; inspection and export
    see events in logical oldest-to-newest order regardless of where the
    wrap landed. *)

val set_tee : t -> t option -> unit
(** [set_tee t (Some r)] forwards every event stored into [t] to [r] as
    well, stamped with the same timestamp, so a keep-last tail ring can
    shadow a primary keep-first ring (the flight recorder still sees
    events after the primary fills up and starts dropping). A no-op on
    the disabled sink. [set_tee t None] detaches. *)

val enabled : t -> bool
(** [true] iff events emitted into this sink are recorded. Hot paths
    check this before computing event arguments. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the simulated-time source (monotonic nanoseconds). Events
    emitted before any [set_clock] are stamped [0]. *)

val now : t -> int
(** Current reading of the sink's clock. *)

val clear : t -> unit
(** Drop all recorded events (and the dropped-event count). *)

val length : t -> int
(** Number of retained events. *)

val capacity : t -> int
(** Ring capacity ([0] for {!null}). *)

val dropped : t -> int
(** Events discarded because the ring was full. *)

(** {1 Emitters}

    All emitters are no-ops on a disabled sink. Timestamps are read
    from the sink clock at emission time. *)

val call_begin : t -> sandbox:int -> unit
(** Transition span open: control enters sandbox [sandbox]. *)

val call_end : t -> sandbox:int -> unit
(** Transition span close: control returns to the host. *)

val hostcall : t -> sandbox:int -> cls:int -> cycles:int -> unit
(** A hostcall transition of class [cls] ([0] pure, [1] read-only,
    [2] full) that cost [cycles] machine cycles. *)

val instantiate : t -> sandbox:int -> warm:bool -> unit
(** Lifecycle: slot [sandbox] was instantiated (cold or warm). *)

val recycle : t -> sandbox:int -> pages:int -> unit
(** Lifecycle: slot [sandbox] was released and recycled; [pages] dirty
    pages were scrubbed. *)

val kill : t -> sandbox:int -> unit
(** Lifecycle: slot [sandbox] was killed after a fault. *)

val fault : t -> sandbox:int -> addr:int -> write:bool -> unit
(** A containment fault attributed to [sandbox]. [addr] is the faulting
    address ([-1] when the trap carries no address, e.g. fuel
    exhaustion); [write] distinguishes store from load faults. *)

val pkru_write : t -> value:int -> unit
(** The machine executed [wrpkru] with [value]. Machine track. *)

val tlb_fill : t -> page:int -> unit
(** The simulated dTLB filled a slot with [page]. Machine track. *)

val tlb_evict : t -> page:int -> unit
(** The fill displaced valid entry [page]. Machine track. *)

val fuel_checkpoint : t -> sandbox:int -> executed:int -> unit
(** An activation yielded at an epoch boundary with [executed]
    instructions retired so far. *)

val request_begin : t -> tenant:int -> unit
(** FaaS: tenant [tenant]'s request entered service. *)

val request_end : t -> tenant:int -> ok:bool -> unit
(** FaaS: the request completed ([ok]) or failed. *)

val admission_admit : t -> tenant:int -> sojourn:int -> unit
(** Admission: tenant [tenant]'s ticket was granted a slot after waiting
    [sojourn] simulated nanoseconds in the admission queue (0 for an
    uncontended grant). *)

val admission_queue : t -> tenant:int -> depth:int -> unit
(** Admission: the ticket was parked; [depth] is the queue length after
    enqueueing. *)

val admission_shed : t -> tenant:int -> sojourn:int -> reason:int -> unit
(** Admission: the ticket was shed. [sojourn] is how long it had waited;
    [reason] is [0] sojourn-deadline (CoDel), [1] tenant rate limit,
    [2] queue at capacity, [3] priority shed by the degradation ladder. *)

val breaker_open : t -> tenant:int -> backoff:int -> unit
(** Circuit breaker: tenant [tenant]'s breaker tripped open; the next
    probe is allowed after [backoff] simulated nanoseconds. *)

val breaker_half_open : t -> tenant:int -> unit
(** Circuit breaker: the backoff elapsed; one probe request is allowed. *)

val breaker_close : t -> tenant:int -> unit
(** Circuit breaker: the probe succeeded; the tenant is healthy again. *)

val degrade_step : t -> level:int -> unit
(** The graceful-degradation ladder moved to [level] ([0] = normal
    service). Machine track. *)

val tier_promote : t -> cls:int -> block:int -> len:int -> unit
(** The compiled engine compiled the basic block headed at instruction
    index [block] ([len] dispatch slots) on its first entry, to run
    ranges of it under one batched charge. [cls] is the block's class
    rank — [0] pure-compute ([tier.promote.pure]), [1]
    no-store-no-branch ([tier.promote.load]), [2] hazardous
    ([tier.promote.hazard]). Every class is promoted whether or not a
    sink is live; blocks that run one instruction per dispatch (one slot
    long, or holding a hostcall, explicit trap or unresolved branch) are
    not promotions and emit nothing. Machine track. *)

val slo_burn_start : t -> tenant:int -> burn_milli:int -> window:int -> unit
(** SLO: tenant [tenant]'s error-budget burn rate crossed its alerting
    threshold. [burn_milli] is the burn rate in thousandths (burn x
    1000, truncated); [window] is [0] for the fast window, [1] for the
    slow one. *)

val slo_burn_stop : t -> tenant:int -> burn_milli:int -> window:int -> unit
(** SLO: the burn-rate alert for [tenant] cleared. Arguments as for
    {!slo_burn_start}. *)

(** {1 Inspection} *)

type event = {
  ev_ts : int;  (** simulated nanoseconds *)
  ev_cat : string;
      (** one of ["transition"], ["lifecycle"], ["fault"], ["pkru"],
          ["tlb"], ["fuel"], ["request"], ["admission"], ["breaker"],
          ["tier"] *)
  ev_name : string;  (** e.g. ["call"], ["hostcall.pure"], ["tlb.fill"] *)
  ev_phase : char;  (** ['B'] span begin, ['E'] span end, ['i'] instant *)
  ev_track : int;  (** [-1] machine, [>= 0] sandbox/tenant id *)
  ev_a0 : int;  (** first event argument (meaning depends on [ev_name]) *)
  ev_a1 : int;  (** second event argument *)
}

val events : t -> event list
(** Decoded retained events, in emission order. *)

val categories : t -> string list
(** Distinct categories present, sorted. *)

val validate : t -> (unit, string) result
(** Structural check of the retained stream: timestamps are
    non-decreasing per track, every span end matches the innermost open
    span begin of the same name on its track, no span nests inside an
    open span of the same name on its track (no event in the vocabulary
    legitimately self-nests, so such a duplicate means two shards'
    streams collided on one track id), and (when no events were dropped)
    every span is closed. *)

val fingerprint : t -> int64
(** Order-sensitive FNV-1a digest of the retained events (timestamps,
    codes, tracks, arguments, plus length and drop count). Two sinks
    with equal fingerprints hold bit-identical streams; used by the
    sharding determinism and 1-shard-identity tests. *)

val merge_shards : t list -> t
(** [merge_shards rings] merges per-shard ring sinks into one stream
    ordered by simulated time (ties broken toward the lower shard id,
    so the merge is deterministic). Track ids are namespaced per shard:
    with stride [w] = 1 + the widest sandbox track seen in any input,
    shard [s]'s sandbox track [v] becomes [s * w + v] and its machine
    track becomes [-(s + 1)] — without this, two shards' sandbox 0
    collide in the merged Perfetto export (rejected by {!validate}).
    Merging a single ring preserves tracks untouched and is
    bit-identical to its input (equal {!fingerprint}). Dropped-event
    counts are summed. The result is an inspection/export sink; its
    clock is the zero clock. Raises [Invalid_argument] on []. *)

(** {1 Aggregation} *)

type summary = {
  s_count : int;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_total : float;
}
(** Latency distribution of one event class. Units are simulated
    nanoseconds for spans and machine cycles for hostcall classes. *)

val summaries : t -> (string * summary) list
(** Per-class latency summaries: paired [call] / [request] span
    durations and per-class hostcall costs, keyed by event name,
    sorted by name. Distributions are accumulated into
    {!Sfi_util.Hist} log-bucketed histograms, so percentiles are
    bucket-quantized (within one bucket width of the exact sorted-array
    answer); [s_count] and [s_total] stay exact. *)

(** {1 Export} *)

val to_chrome_json : ?process_name:string -> t -> string
(** Render the retained events as Chrome [trace_event] JSON (the
    ["traceEvents"] array form understood by Perfetto and
    [chrome://tracing]). One thread per track — tid [0] is the machine
    track, tid [id + 1] is sandbox [id] — with thread-name metadata
    records. Timestamps are exported in microseconds. *)

(** Minimal self-contained JSON value, exposed so downstream tools (the
    bench perf-regression gate, test-side validators) can parse emitted
    documents without an external dependency. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string
(** Raised by {!parse_json} with a description and byte offset. *)

val parse_json : string -> json
(** Parse a JSON document (objects, arrays, strings with the common
    escapes, numbers, literals). Raises {!Bad_json} on malformed
    input or trailing garbage. *)

type json_report = { json_events : int; json_cats : string list }
(** Result of {!validate_chrome_json}: number of non-metadata events
    and the distinct categories seen, sorted. *)

val validate_chrome_json : string -> (json_report, string) result
(** Parse a Chrome trace JSON document (self-contained minimal JSON
    parser) and check it against the event schema: a top-level
    ["traceEvents"] array whose elements carry [name]/[ph]/[pid]/[tid],
    a numeric [ts] and a known [cat] on every non-metadata event, and a
    phase in [B]/[E]/[i]/[M]. *)

val prometheus : (string * string * float) list -> string
(** [prometheus [(name, help, value); ...]] renders Prometheus text
    exposition format: a [# HELP] and [# TYPE ... gauge] line followed
    by the sample for each metric. HELP text is escaped per the format
    (backslash and newline). Samples sharing a metric name share one
    header, emitted at the first occurrence. *)
