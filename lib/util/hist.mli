(** Log-bucketed (HDR-style) latency histogram.

    Values are binned into log-linear buckets: each power-of-two range
    [2^(e-1), 2^e) is split into [sub] equal-width linear sub-buckets,
    where [sub] is a power of two so every bucket boundary is an exact
    dyadic rational (no accumulated rounding at the edges).  Recording is
    O(1); the counts cover only the octaves recorded so far, so a
    histogram pays memory for the range its samples span, and a record
    allocates only when it reaches a new octave.  Histograms from different
    shards merge element-wise, and percentile queries mirror the rank
    semantics of {!Stats.percentile} — the answer is always within one
    bucket width of the exact sorted-array result (pinned by qcheck).

    Buckets may carry an {e exemplar}: a concrete recorded value tagged
    with a trace-ring fingerprint and event index, so a percentile spike
    in a report links back to the exact span in the trace export. *)

type t

type exemplar = {
  ex_value : float;  (** the recorded value the exemplar stands for *)
  ex_ref : int64;  (** trace-ring fingerprint (0L until {!seal_exemplars}) *)
  ex_index : int;  (** event index inside the referenced ring *)
}

val create : ?sub:int -> unit -> t
(** [create ?sub ()] makes an empty histogram.  [sub] is the number of
    linear sub-buckets per power-of-two range and must be a power of two
    (default 16, giving <= 1/16 relative bucket width).  Raises
    [Invalid_argument] otherwise. *)

val sub_buckets : t -> int
(** The [sub] parameter the histogram was created with. *)

val record : t -> float -> unit
(** [record t v] adds one sample.  Values [<= 0] (and denormal-range
    underflow) land in a dedicated zero bucket; values beyond the top
    of the tracked range clamp into the highest bucket. *)

val record_exemplar : t -> float -> index:int -> unit
(** [record_exemplar t v ~index] records [v] like {!record} and offers
    [(v, index)] as the bucket's exemplar.  The bucket keeps the
    largest-value exemplar seen (ties broken toward the larger index),
    so merging stays commutative.  The exemplar's [ex_ref] is 0 until
    {!seal_exemplars} stamps the owning ring's fingerprint. *)

val seal_exemplars : t -> int64 -> unit
(** [seal_exemplars t ref] sets [ex_ref] to [ref] on every exemplar
    still carrying the placeholder [0L].  Call once the owning trace
    ring's fingerprint is known (i.e. after the run completes). *)

val count : t -> int
(** Number of recorded samples (exact). *)

val total : t -> float
(** Sum of recorded sample values (accumulated exactly, not
    reconstructed from bucket representatives). *)

val percentile : t -> float -> float
(** [percentile t p] mirrors {!Stats.percentile}: rank [p/100 * (n-1)]
    with linear interpolation between the two straddling order
    statistics, each taken as its bucket's midpoint representative.
    Raises [Invalid_argument] when the histogram is empty. *)

val bucket_width_at : t -> float -> float
(** [bucket_width_at t v] is the width of the bucket [v] falls into —
    the error bound for {!percentile} against the exact sorted-array
    answer at that magnitude. *)

val exemplar_at : t -> float -> exemplar option
(** [exemplar_at t p] walks from the bucket holding percentile [p]
    upward and returns the first exemplar found, if any: "what does a
    >= p-th percentile request actually look like?". *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst] element-wise: counts add,
    exemplars keep the larger (value, index) pair.  Merging is
    commutative and associative up to float-addition rounding in
    {!total}.  Raises [Invalid_argument] if the [sub] parameters
    differ. *)

val copy : t -> t
(** Deep copy (bucket counts and exemplars). *)
