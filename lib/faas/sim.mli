(** The simulated FaaS edge platform of §6.4.3 (Figures 6, 7a, 7b).

    A single core serves one request slot per tenant. A slot's requests
    come from one of two arrival sources:

    - the {b closed loop} ([arrivals = None], the paper's simulation):
      each of [concurrency] clients issues its next request an IO delay
      after the last one ended (exponential, 5 ms mean, like the paper);
    - the {b open loop} ([arrivals = Some schedule]): each tenant's
      scheduled arrival times, served in order with at most one in flight.

    A request acquires an instance (up front, or through admission when
    the pool is smaller than the population), then runs its workload in a
    Wasm instance under epoch-based preemption (1 ms epochs). It ends in
    one of these outcomes:

    - {b completed}: the handler returned; one past the request deadline
      also counts as a [deadline_miss];
    - {b failed}: a trap, a watchdog stop or a chaos kill. The failure
      feeds the tenant's breaker and the slot moves on to its next
      request;
    - {b aborted}: a co-resident tenant crashed the shared process
      ([collateral_aborts], multiprocess only). The slot retries the same
      request once the process respawns;
    - {b shed}: refused at admission or by the degradation ladder before
      service. The slot moves on to its next request;
    - still waiting or in flight when the run ends.

    An open breaker refuses a request without serving it
    ([breaker_fast_fails]); the request waits for the breaker's next
    probe time.

    Two scaling strategies are compared:

    - {b ColorGuard}: one process; instances live in a striped pool and
      transitions are user-level (a pkru write — no TLB flush);
    - {b Multiprocess}: [processes] separate engines (own address space,
      own TLB state); the OS round-robins between them on 1 ms timeslices,
      paying a 5 us context switch (direct plus indirect cost) and a TLB
      flush per switch.

    Compute is real: the workload modules execute on the machine, so dTLB
    misses (Figure 7b) come out of the TLB model rather than a formula.

    The {!fault_model} adds misbehaving tenants: with per-request
    probabilities a request runs a trapping or runaway handler instead of
    [handle]. Faults are contained — a trap kills only the offending
    instance (ColorGuard) or its whole process (multiprocess, the blast
    radius), a runaway loop is stopped by the epoch watchdog, and the
    simulation always runs to completion, reporting availability. *)

type mode = Colorguard | Multiprocess of int  (** process count (1-15) *)

type fault_model = {
  trap_rate : float;  (** per-request probability of a trapping handler *)
  runaway_rate : float;  (** per-request probability of an infinite loop *)
  deadline_epochs : int;
      (** watchdog: epochs a request may consume before being killed *)
  respawn_ns : float;  (** cost to restart a crashed process (multiprocess) *)
}

val no_faults : fault_model
(** Zero fault rates (the legacy behavior); deadline 8 epochs, respawn
    0.5 ms. The watchdog deadline applies to {e every} request, fault
    model or not — a runaway guest is always bounded. *)

(** {1 Overload resilience}

    Policy knobs for serving under sustained overload. Everything
    defaults off ({!no_overload}), in which case the sim behaves exactly
    as it historically did. *)

type overload = {
  pool_slots : int option;
      (** ColorGuard pool size; default [concurrency]. Setting it below
          [concurrency] makes slots a contended resource acquired through
          admission — the overload regime. *)
  admission : Sfi_runtime.Runtime.admission_config option;
      (** arm {!Sfi_runtime.Runtime.set_admission} on every engine: CoDel
          sojourn control + per-tenant token buckets instead of the blind
          FIFO reject *)
  breaker : Breaker.config option;
      (** per-tenant circuit breakers: trap/watchdog/latency failures trip
          them, open breakers fast-fail requests without touching the
          pool, half-open probes close them again *)
  degradation : bool;
      (** graceful-degradation ladder: under sustained shedding step down
          deliberately — L1 tightens admission (pressure 0.5) and reserves
          1/8 of the slots, L2 also stops hedging failed requests, L3 also
          sheds low-priority arrivals; steps back up after calm windows.
          Each step emits a [degrade.step] trace event. *)
  hedged_retries : bool;
      (** retry failed requests next epoch instead of after a full IO
          round-trip (downgraded by the ladder at L2) *)
  request_deadline_ns : float option;
      (** end-to-end deadline (arrival to completion): a completion past
          it counts as a [deadline_miss] and is excluded from goodput *)
  crash_tenants : int list;  (** tenants whose every request traps *)
  runaway_tenants : int list;  (** tenants whose every request spins *)
  low_priority : int -> bool;
      (** tenants the ladder may shed at L3 (default: none) *)
  slo : Slo.config option;
      (** per-tenant latency/availability objectives: every request outcome
          (completion checked against the latency threshold; failures and
          sheds count as bad) feeds a per-tenant {!Slo} tracker, burn-rate
          alert edges are emitted as [slo.burn_start]/[slo.burn_stop] trace
          events, and the degradation ladder treats any tenant burning its
          fast window as overload (shedding starts on burn rate, not just
          queue sojourn) *)
}

val no_overload : overload

(** {1 Chaos}

    Perturbations applied to the live run on a caller-supplied schedule
    (see {!Sfi_inject.Chaos} for the seeded planner and invariant
    checks). Chaos randomness (victim choice, respawn delays) comes from
    a dedicated PRNG stream derived from [seed], so a chaos run is
    deterministic and the workload stream is untouched. *)

type chaos_action =
  | Chaos_kill
      (** kill a random in-flight instance; its request fails
          (attributed to that tenant only) and the slot recycles *)
  | Chaos_latency of { factor : float; window_ns : float }
      (** multiply IO delays by [factor] for the next [window_ns] *)
  | Chaos_instantiate_fail of int
      (** make the next [n] slot acquisitions fail transiently *)

type chaos_event = { at_ns : float; action : chaos_action }

type chaos_report = {
  cr_index : int;  (** 0-based perturbation number *)
  cr_at_ns : float;  (** scheduled time (application may lag slightly) *)
  cr_action : chaos_action;
  cr_victim : int;  (** tenant killed by [Chaos_kill]; [-1] otherwise *)
  cr_failed : int array;  (** per-tenant failure counts after application *)
}

type config = {
  mode : mode;
  workload : Workloads.t;
  concurrency : int;
      (** request slots: closed-loop clients, or open-loop tenants *)
  duration_ns : float;  (** simulated wall-clock to run for *)
  io_mean_ns : float;  (** mean IO delay (paper: 5 ms) *)
  epoch_ns : float;  (** preemption epoch (paper: 1 ms) *)
  faults : fault_model;
  seed : int64;
  churn : bool;
      (** release every instance after its request completes, so each
          request runs on a fresh instantiation — the §6.4.3 FaaS pattern *)
  page_zero_ns : float;
      (** price of one OS page of instantiation/recycle work (zeroing or
          copying); 0.0 (default) makes lifecycle work free, the historical
          behavior. The paper's 79 us / 64 KiB instance (§7) gives
          ~4937 ns/page. *)
  legacy_lifecycle : bool;
      (** bill every instantiate at the pre-refactor runtime's O(min_pages)
          cost (whole-heap madvise + data-segment rewrite) instead of the
          CoW runtime's O(dirty pages); {!validate} refuses it with
          [page_zero_ns = 0], which would bill nothing *)
  trace : Sfi_trace.Trace.t;
      (** structured-event sink for per-tenant request spans
          ([Trace.null] by default, a no-op). The sim installs the simulated
          clock on the sink and emits one [request] span per activation on
          track [id] — so a Chrome/Perfetto export shows one lane per
          tenant. Spans still open when the simulated duration expires are
          closed without being counted as failures. *)
  flight : Sfi_trace.Flight.t option;
      (** fault flight recorder ([None] by default). When armed it taps
          the trace sink (or becomes the effective sink when the run is
          otherwise untraced) and freezes a post-mortem bundle — event
          tail plus a machine/admission/breaker/ladder counter snapshot —
          on every request failure ([fault]), breaker trip
          ([breaker.open]) and chaos perturbation ([chaos.kill] /
          [chaos.latency] / [chaos.instantiate_fail]). Pure observer:
          arming it never changes simulation results. *)
  overload : overload;  (** resilience policy ({!no_overload} = legacy) *)
  engine : Sfi_machine.Machine.engine_kind option;
      (** execution engine for the machines (default:
          {!Sfi_runtime.Runtime.create_engine}'s default, [Compiled]);
          [Reference] runs the differential oracle *)
  chaos : chaos_event list;  (** perturbation schedule (applied in time order) *)
  on_perturbation : (chaos_report -> unit) option;
      (** called after each perturbation is applied — the chaos harness's
          invariant-check hook *)
  arrivals : Workloads.arrival array option;
      (** [None] (default): the closed loop. [Some schedule]: the open
          loop over [concurrency] tenants (see {!Workloads.synthesize}).
          An arrival that fires while the tenant's previous request is
          still in service waits, and its e2e latency includes the wait.
          The run still ends at [duration_ns]. This is the trace-shaped
          load the sharded serving layer ({!Sfi_faas.Shard}) drives each
          shard with. *)
}

val default_config :
  ?mode:mode ->
  ?workload:Workloads.t ->
  ?faults:fault_model ->
  ?churn:bool ->
  ?page_zero_ns:float ->
  ?legacy_lifecycle:bool ->
  ?overload:overload ->
  ?engine:Sfi_machine.Machine.engine_kind ->
  ?chaos:chaos_event list ->
  ?on_perturbation:(chaos_report -> unit) ->
  ?fair_scheduling:bool ->
  ?flight:Sfi_trace.Flight.t ->
  unit ->
  config
(** concurrency 128, duration 20 ms, IO mean 5 ms, epoch 1 ms, ColorGuard,
    hash workload, no faults, no churn, free lifecycle work, no tracing,
    round-robin processor sharing (the only scheduler: every ready
    request gets an epoch in turn, in-flight requests hold their pool
    slots across preemption, and excess demand queues, and is shed, at
    admission).

    [fair_scheduling] is accepted and ignored. It named the processor
    sharing that is now the only scheduler, and the benchmark in
    [perfbench/] still passes it; it goes when that benchmark next
    changes. *)

type tenant_stat = {
  t_id : int;  (** the request slot — one closed-loop tenant *)
  t_completed : int;
  t_failed : int;  (** kills, watchdog stops and collateral aborts *)
  t_shed : int;  (** requests shed at admission (all reasons) *)
  t_breaker_opens : int;  (** times this tenant's breaker tripped *)
  t_breaker_state : string;
      (** breaker state at end of run (["closed"] / ["open"] /
          ["half-open"]); ["-"] when breakers are off *)
  t_p50_ns : float;  (** request latency percentiles over completed
                         activations (activation start to completion, in
                         simulated ns); 0 when the tenant completed
                         nothing *)
  t_p95_ns : float;
  t_p99_ns : float;
  t_p99_e2e_ns : float;
      (** p99 end-to-end latency (arrival to completion, including
          admission queueing) — what the request deadline is checked
          against *)
  t_sb_share : float;
      (** fraction of this tenant's retired instructions executed by
          batched ranges of promoted blocks (0 under the [Reference]
          engine) *)
  t_burn : float;
      (** fast-window error-budget burn rate at end of run (0 when SLOs
          are off) — the [sfi top] BURN column *)
  t_lat_hist : Sfi_util.Hist.t;
      (** the latency histogram behind the percentiles, with per-bucket
          exemplars pointing into the trace ring; mergeable across shards *)
  t_e2e_hist : Sfi_util.Hist.t;  (** end-to-end latency histogram *)
}

(** A run's counters and rates. The run books the [mutable] counters
    into a live record of this type as it goes; what callers receive is
    a copy that later work does not change. *)
type result = private {
  completed : int;  (** requests that finished successfully *)
  failed : int;  (** requests killed by a trap or the watchdog *)
  mutable watchdog_kills : int;  (** subset of [failed] stopped by the deadline *)
  mutable collateral_aborts : int;
      (** in-flight requests aborted because a co-resident tenant crashed
          their shared process — the blast radius; always 0 for ColorGuard *)
  mutable recycles : int;  (** instances re-created on recycled slots *)
  pages_zeroed : int;
      (** OS pages of dirty state dropped by slot recycles, summed over all
          engines — the CoW runtime's whole lifecycle cost *)
  admitted : int;  (** slot grants through admission, summed over engines *)
  shed_sojourn : int;  (** CoDel / ticket-deadline sheds *)
  shed_rate_limited : int;  (** per-tenant token-bucket sheds *)
  shed_queue_full : int;  (** admission-queue-at-capacity sheds *)
  shed_priority : int;  (** low-priority arrivals shed by the ladder at L3 *)
  mutable deadline_misses : int;
      (** completions past [request_deadline_ns] — completed but excluded
          from goodput *)
  breaker_opens : int;  (** breaker trips, summed over tenants *)
  mutable breaker_fast_fails : int;
      (** requests refused by an open breaker without entering service
          (not counted in [failed]) *)
  breakers_open_at_end : int;  (** breakers not Closed when the run ended *)
  mutable degrade_steps : int;  (** ladder transitions (up or down) *)
  mutable max_degrade_level : int;  (** deepest ladder level reached (0-3) *)
  mutable chaos_applied : int;  (** perturbations applied from the schedule *)
  mutable chaos_kills : int;  (** [Chaos_kill]s that found an in-flight victim *)
  mutable slo_burn_starts : int;  (** burn-rate alert raises, both windows *)
  mutable slo_burn_stops : int;  (** burn-rate alert clears, both windows *)
  slo_burning_at_end : int;
      (** tenants whose fast-window alert was still raised at end of run *)
  throughput_rps : float;
      (** requests retired (successfully or not) per simulated second. A
          rate over an empty interval is 0. *)
  goodput_rps : float;
      (** successful in-deadline completions per simulated second
          ([completed - deadline_misses]; identical to completions/s when
          no deadline is set) *)
  availability : float;
      (** completed / (completed + failed + collateral_aborts); 1 when no
          request was attempted *)
  capacity_rps : float;
      (** completions per CPU-busy second — the per-core efficiency that
          Figure 6's throughput-gain percentages compare; 0 when no CPU work
          ran *)
  mutable context_switches : int;
      (** OS-level process switches (multiprocess) — Figure 7a's metric;
          always 0 for ColorGuard, whose switches are user-level *)
  user_transitions : int;  (** sandbox entries/exits *)
  dtlb_misses : int;  (** summed over all engines — Figure 7b *)
  checksum : int64;  (** folded request results, for validation *)
  simulated_ns : float;
  cpu_busy_ns : float;
  tenants : tenant_stat array;
      (** per-tenant breakdown, indexed by request slot — the [sfi top]
          table *)
}

(** How {!counters} reads one field of a {!result}. *)
type getter = Int of (result -> int) | Float of (result -> float)

val counters : (string * string * getter) list
(** Every scalar counter and rate of a {!result} once: its field name,
    its help text and its field. Exporters iterate this table:
    {!prometheus_gauges} writes each entry as a gauge, and
    {!Sfi_faas.Shard.result_fingerprint} digests the fields in this
    order. *)

val prometheus_gauges : result -> (string * string * float) list
(** One gauge per {!counters} entry, in table order: [sfi_<name>_total]
    for an [Int] counter, [sfi_<name>] for a [Float] rate, with the
    entry's help text. [sfi chaos --metrics-out] writes these. *)

val validate : config -> (unit, string) Stdlib.result
(** [Error reason] for a configuration {!run} refuses: [concurrency < 1];
    a [duration_ns] that is not finite and positive (a closed loop would
    never end); a process count or [pool_slots] below 1; an [epoch_ns]
    that is not finite or is shorter than one machine cycle (every step
    would get no fuel and the watchdog would kill every request); an
    [io_mean_ns], [page_zero_ns] or [faults.respawn_ns] that is negative
    or not finite; [legacy_lifecycle] with [page_zero_ns = 0] (no
    lifecycle work would be billed at all); [faults.deadline_epochs < 1];
    an arrival whose tenant is not below [concurrency], or whose [at_ns]
    is negative, NaN or infinite. *)

val run : config -> result
(** Always runs to completion: sandbox misbehavior (traps, runaway loops,
    crashed processes) is contained and reported in the counters, never
    re-raised to the caller. Raises [Invalid_argument ("Sim: " ^ reason)]
    when {!validate} gives [Error reason]. *)

val sheds : result -> int
(** Requests shed before service, all four reasons: sojourn, rate limit,
    full queue and the ladder's priority shed. *)

val merge : tenants:tenant_stat array -> result list -> result
(** Merge the results of parts that served side by side, each on its own
    simulated core: counters summed ([max_degrade_level] the max),
    [simulated_ns] the max, [cpu_busy_ns] the sum, and the rates
    recomputed from the merged counters by the same definition {!run}
    uses. [tenants] is the caller's re-indexed breakdown. The merge of
    no parts is the empty result: zero counters and rates, availability
    1. *)

val throughput_gain : colorguard:result -> multiprocess:result -> float
(** Percent throughput advantage of a ColorGuard run over a multiprocess
    run of the same load — one point of Figure 6. A ColorGuard run does not
    depend on the process count, so one serves every point of a curve. *)

val top_header : breakers:bool -> string
(** Column header of the [sfi top] per-tenant table. With [breakers] the
    table carries the resilience columns (SHED, BRKOPEN, BRK state) and
    the fast-window SLO BURN rate. *)

val top_row : breakers:bool -> tenant_stat -> string
(** One fixed-width [sfi top] row, aligned with {!top_header} of the same
    [breakers] mode. *)
