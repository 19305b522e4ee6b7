(** Sharded serving across OCaml domains.

    Partitions the engine pool across [shards] domains — each with its own
    engine, pooling allocator, pkru/TLB state, trace sink and admission
    controller — places tenants on shards by hash, rebalances with a
    deterministic work-stealing dispatch plan, runs one {!Sim.run} per
    shard on its own domain, and merges the per-shard outcomes back into a
    single {!Sim.result}:

    - per-shard trace rings are merged by simulated time with per-shard
      track namespacing ({!Sfi_trace.Trace.merge_shards});
    - per-shard PRNG streams are split from the root seed
      ({!Sfi_util.Prng.split_seed}), never xor-derived;
    - per-shard DLS metrics are snapshotted {e inside} each worker domain
      before [Domain.join] ({!Sfi_runtime.Runtime.merged_metrics}).

    Determinism contract: [run] is a pure function of its config — equal
    configs (same seed, same shard count) produce bit-identical reports on
    every repeat, and a 1-shard run is bit-identical to the unsharded
    [Sim.run] of [base] (same result, same counters, same trace
    fingerprint). *)

type config = {
  base : Sim.config;
      (** the template config; [base.concurrency] is the global tenant
          count, [base.seed] the root seed. Used verbatim when
          [shards = 1]. *)
  shards : int;  (** number of domains / engine partitions, [>= 1] *)
  steal : bool;  (** enable the work-stealing rebalance pass *)
  trace_capacity : int;
      (** per-shard trace-ring capacity (only used when [base.trace] is a
          live ring) *)
}

val default_config :
  ?steal:bool -> ?trace_capacity:int -> shards:int -> Sim.config -> config
(** [steal] defaults to [true], [trace_capacity] to [65536]. *)

val home_shard : shards:int -> int -> int
(** Hash placement of a tenant id onto [0 .. shards-1] (avalanched, not
    striped, so dense tenant ids spread evenly). *)

val plan : shards:int -> steal:bool -> float array -> int array * int
(** [plan ~shards ~steal weights] resolves the dispatch plan for tenants
    [0 .. n-1] with offered loads [weights]: every tenant starts on its
    {!home_shard}; then, while the least-loaded shard would sit idle next
    to a backlogged one, it steals the tenant at the {e tail} of the most
    loaded shard's hot-to-cold deque (the coldest tenant, keeping hot
    tenants shard-local) whenever the move strictly shrinks the
    imbalance. Returns the final tenant-to-shard assignment and the
    number of steals. Pure and deterministic — stealing is resolved at
    plan time, so worker domains never race for work. *)

type shard_stat = {
  sh_id : int;
  sh_tenants : int;  (** tenants served by this shard after stealing *)
  sh_stolen : int;  (** tenants that arrived here via a steal *)
  sh_weight : float;  (** offered load share (arrivals, or tenant count) *)
  sh_completed : int;
  sh_shed : int;  (** admission sheds, all reasons *)
  sh_busy_ns : float;
  sh_metrics : Sfi_runtime.Runtime.metrics;
      (** this shard's DLS counters, harvested on the worker domain *)
}

type report = {
  r_result : Sim.result;
      (** the shard results merged by {!Sim.merge}, with [tenants]
          re-indexed by global tenant id; a shard without tenants
          contributes nothing *)
  r_shards : shard_stat array;
  r_steals : int;
  r_metrics : Sfi_runtime.Runtime.metrics;
  r_trace : Sfi_trace.Trace.t option;
      (** the namespaced, time-merged trace ([None] when [base.trace] is
          the null sink) *)
}

val run : config -> report
(** Run the sharded simulation: one spawned domain per shard, joined and
    merged deterministically. Raises [Invalid_argument] if [shards < 1],
    and [Invalid_argument ("Sim: " ^ reason)] when {!Sim.validate} gives
    [base] [Error reason], unless [base] has no tenants and no arrivals
    (such a run serves nothing).

    When [base.chaos] is non-empty the schedule is dealt round-robin
    across shards (preserving the total perturbation count); a supplied
    [base.on_perturbation] callback then runs concurrently on worker
    domains and must be thread-safe. *)

val result_fingerprint : Sim.result -> int64
(** FNV-1a digest of every counter and rate in {!Sim.counters} order,
    then the checksum, the simulated and busy times and every per-tenant
    stat (floats by bit pattern) — the equality witness for the
    determinism and 1-shard bit-identity contracts, and what
    [sfi chaos --repeat] compares. *)

val metrics_fingerprint : Sfi_runtime.Runtime.metrics -> int64
(** FNV-1a digest of a runtime-metrics snapshot, its counters taken in
    {!Sfi_runtime.Runtime.counters} order. *)

val latency_summary : Sim.result -> float * float * float
(** Global (p50, p95, p99) request latency in ns, computed by merging the
    per-tenant log-bucketed histograms — exact at bucket granularity
    across tenants and shards, no completions-weighted interpolation. *)
