module Machine = Sfi_machine.Machine
module Cost = Sfi_machine.Cost
module Runtime = Sfi_runtime.Runtime
module Codegen = Sfi_core.Codegen
module Strategy = Sfi_core.Strategy
module Pool = Sfi_core.Pool
module Prng = Sfi_util.Prng
module Units = Sfi_util.Units
module Stats = Sfi_util.Stats
module Hist = Sfi_util.Hist
module Trace = Sfi_trace.Trace
module Flight = Sfi_trace.Flight

type mode = Colorguard | Multiprocess of int

type fault_model = {
  trap_rate : float;
  runaway_rate : float;
  deadline_epochs : int;
  respawn_ns : float;
}

let no_faults =
  { trap_rate = 0.0; runaway_rate = 0.0; deadline_epochs = 8; respawn_ns = 500_000.0 }

(* Overload-resilience policy: adaptive admission over a slot pool that
   may be smaller than the closed-loop population, per-tenant circuit
   breakers, a graceful-degradation ladder, and deliberately misbehaving
   tenants to aim them at. All off by default ([no_overload]), in which
   case the sim behaves exactly as before. *)
type overload = {
  pool_slots : int option;
  admission : Sfi_runtime.Runtime.admission_config option;
  breaker : Breaker.config option;
  degradation : bool;
  hedged_retries : bool;
  request_deadline_ns : float option;
  crash_tenants : int list;
  runaway_tenants : int list;
  low_priority : int -> bool;
  slo : Slo.config option;
}

let no_overload =
  {
    pool_slots = None;
    admission = None;
    breaker = None;
    degradation = false;
    hedged_retries = false;
    request_deadline_ns = None;
    crash_tenants = [];
    runaway_tenants = [];
    low_priority = (fun _ -> false);
    slo = None;
  }

(* Chaos perturbations applied to the live run on a schedule the caller
   supplies (see {!Sfi_inject.Chaos} for the seeded planner). *)
type chaos_action =
  | Chaos_kill
  | Chaos_latency of { factor : float; window_ns : float }
  | Chaos_instantiate_fail of int

type chaos_event = { at_ns : float; action : chaos_action }

type chaos_report = {
  cr_index : int;
  cr_at_ns : float;
  cr_action : chaos_action;
  cr_victim : int;
  cr_failed : int array;
}

type config = {
  mode : mode;
  workload : Workloads.t;
  concurrency : int;
  duration_ns : float;
  io_mean_ns : float;
  epoch_ns : float;
  faults : fault_model;
  seed : int64;
  churn : bool;
  page_zero_ns : float;
  legacy_lifecycle : bool;
  trace : Trace.t;
  flight : Flight.t option;
      (* Fault flight recorder. When armed it taps the trace sink (or
         becomes the sink for untraced runs) and freezes a post-mortem
         bundle on faults, breaker trips and chaos perturbations. Pure
         observer: arming it never changes simulation state. *)
  overload : overload;
  engine : Machine.engine_kind option;
  chaos : chaos_event list;
  on_perturbation : (chaos_report -> unit) option;
  arrivals : Workloads.arrival array option;
}

let default_config ?(mode = Colorguard) ?(workload = Workloads.Hash_balance)
    ?(faults = no_faults) ?(churn = false) ?(page_zero_ns = 0.0)
    ?(legacy_lifecycle = false) ?(overload = no_overload) ?engine ?(chaos = [])
    ?on_perturbation ?fair_scheduling:_ ?flight () =
  {
    mode;
    workload;
    concurrency = 128;
    duration_ns = 20.0e6;
    io_mean_ns = 5.0e6;
    epoch_ns = 1.0e6;
    faults;
    seed = 0x5EEDL;
    churn;
    page_zero_ns;
    legacy_lifecycle;
    trace = Trace.null;
    flight;
    overload;
    engine;
    chaos;
    on_perturbation;
    arrivals = None;
  }

type tenant_stat = {
  t_id : int;
  t_completed : int;
  t_failed : int;
  t_shed : int;
  t_breaker_opens : int;
  t_breaker_state : string;
  t_p50_ns : float;
  t_p95_ns : float;
  t_p99_ns : float;
  t_p99_e2e_ns : float;
  t_sb_share : float;
  t_burn : float;
  t_lat_hist : Hist.t;
  t_e2e_hist : Hist.t;
}

(* The run-wide counters and rates. One record of this type is a run's
   live counters: the [mutable] fields are booked into it as the run
   goes, and [totals] copies it with the values derived from the
   per-slot tallies, the engines and the clock. *)
type result = {
  completed : int;
  failed : int;
  mutable watchdog_kills : int;
  mutable collateral_aborts : int;
  mutable recycles : int;
  pages_zeroed : int;
  admitted : int;
  shed_sojourn : int;
  shed_rate_limited : int;
  shed_queue_full : int;
  shed_priority : int;
  mutable deadline_misses : int;
  breaker_opens : int;
  mutable breaker_fast_fails : int;
  breakers_open_at_end : int;
  mutable degrade_steps : int;
  mutable max_degrade_level : int;
  mutable chaos_applied : int;
  mutable chaos_kills : int;
  mutable slo_burn_starts : int;
  mutable slo_burn_stops : int;
  slo_burning_at_end : int;
  throughput_rps : float;
  goodput_rps : float;
  availability : float;
  capacity_rps : float;
  mutable context_switches : int;
  user_transitions : int;
  dtlb_misses : int;
  checksum : int64;
  simulated_ns : float;
  cpu_busy_ns : float;
  tenants : tenant_stat array;
}

(* A server-class second-level dTLB (1536 entries, as on the paper's
   RaptorLake testbed) — large enough that ColorGuard's instances stay
   resident, which is exactly what process switching destroys. *)
let server_tlb =
  { Sfi_vmem.Tlb.entries = 1536; ways = 8; page_walk_levels = 4; walk_cycles_per_level = 5 }

(* Direct plus indirect cost of one Linux process switch. *)
let os_switch_ns = 5000.0

(* The configurations [run] refuses, each with the reason. A closed loop
   never ends without a finite duration; an epoch shorter than one cycle
   gives every step no fuel, so the watchdog kills every request; and a
   negative delay, page price, respawn or arrival time would move the
   clock backwards. *)
let validate cfg =
  let finite_nonneg x = x >= 0.0 && Float.is_finite x in
  let f = cfg.faults in
  if cfg.concurrency < 1 then Error "concurrency must be >= 1"
  else if not (cfg.duration_ns > 0.0) then Error "duration_ns must be > 0"
  else if not (Float.is_finite cfg.duration_ns) then Error "duration_ns must be finite"
  else if (match cfg.mode with Multiprocess n -> n < 1 | Colorguard -> false) then
    Error "process count must be >= 1"
  else if (match cfg.overload.pool_slots with Some n -> n < 1 | None -> false) then
    Error "pool_slots must be >= 1"
  else if
    not
      (Float.is_finite cfg.epoch_ns
      && Cost.cycles_of_ns Cost.default cfg.epoch_ns >= 1)
  then Error "epoch_ns must be finite and at least one machine cycle"
  else if not (finite_nonneg cfg.io_mean_ns) then Error "io_mean_ns must be finite and >= 0"
  else if not (finite_nonneg cfg.page_zero_ns) then
    Error "page_zero_ns must be finite and >= 0"
  else if cfg.legacy_lifecycle && cfg.page_zero_ns = 0.0 then
    Error "legacy_lifecycle needs page_zero_ns > 0"
  else if not (finite_nonneg f.respawn_ns) then
    Error "faults.respawn_ns must be finite and >= 0"
  else if f.deadline_epochs < 1 then Error "faults.deadline_epochs must be >= 1"
  else
    let bad_tenant a = a.Workloads.tenant < 0 || a.Workloads.tenant >= cfg.concurrency in
    match cfg.arrivals with
    | Some arr when Array.exists bad_tenant arr -> Error "arrival tenant out of range"
    | Some arr when Array.exists (fun a -> not (finite_nonneg a.Workloads.at_ns)) arr ->
        Error "arrival at_ns must be finite and >= 0"
    | Some _ | None -> Ok ()

let fresh_engines cfg m =
  let create ?allocator colorguard =
    let compiled = Codegen.compile { (Codegen.default_config ()) with Codegen.colorguard } m in
    Runtime.create_engine ~tlb:server_tlb ?allocator ?engine:cfg.engine compiled
  in
  match cfg.mode with
  | Multiprocess n -> List.init n (fun _ -> create false)
  | Colorguard ->
      let params =
        {
          Pool.default_params with
          num_slots = Option.value cfg.overload.pool_slots ~default:cfg.concurrency;
          max_memory_bytes = 4 * Units.mib;
          expected_slot_bytes = 4 * Units.mib;
          guard_bytes = 32 * Units.mib;
          num_pkeys_available = Sfi_vmem.Mpk.max_usable_keys;
          stripe_enabled = true;
        }
      in
      let layout =
        (* Degrade stripes -> guards rather than refusing to serve when the
           striped layout is rejected (key budget, overflow). *)
        match Pool.compute_with_fallback params with
        | Ok (l, _status) -> l
        | Error msg -> failwith ("Sim: pool layout: " ^ msg)
      in
      [ create ~allocator:(Runtime.Pool layout) true ]

(* The four rates of a result, from its counters: the one definition
   [run] and [merge] share. A rate over an empty interval is 0. *)
let with_rates r =
  let per_s n ns = if ns > 0.0 then float_of_int n /. (ns /. 1.0e9) else 0.0 in
  let attempts = r.completed + r.failed + r.collateral_aborts in
  {
    r with
    throughput_rps = per_s attempts r.simulated_ns;
    goodput_rps = per_s (r.completed - r.deadline_misses) r.simulated_ns;
    availability =
      (if attempts = 0 then 1.0 else float_of_int r.completed /. float_of_int attempts);
    capacity_rps = per_s r.completed r.cpu_busy_ns;
  }

let sheds r = r.shed_sojourn + r.shed_rate_limited + r.shed_queue_full + r.shed_priority

let merge ~tenants results =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  with_rates
    {
      completed = sum (fun r -> r.completed);
      failed = sum (fun r -> r.failed);
      watchdog_kills = sum (fun r -> r.watchdog_kills);
      collateral_aborts = sum (fun r -> r.collateral_aborts);
      recycles = sum (fun r -> r.recycles);
      pages_zeroed = sum (fun r -> r.pages_zeroed);
      admitted = sum (fun r -> r.admitted);
      shed_sojourn = sum (fun r -> r.shed_sojourn);
      shed_rate_limited = sum (fun r -> r.shed_rate_limited);
      shed_queue_full = sum (fun r -> r.shed_queue_full);
      shed_priority = sum (fun r -> r.shed_priority);
      deadline_misses = sum (fun r -> r.deadline_misses);
      breaker_opens = sum (fun r -> r.breaker_opens);
      breaker_fast_fails = sum (fun r -> r.breaker_fast_fails);
      breakers_open_at_end = sum (fun r -> r.breakers_open_at_end);
      degrade_steps = sum (fun r -> r.degrade_steps);
      max_degrade_level = List.fold_left (fun acc r -> max acc r.max_degrade_level) 0 results;
      chaos_applied = sum (fun r -> r.chaos_applied);
      chaos_kills = sum (fun r -> r.chaos_kills);
      slo_burn_starts = sum (fun r -> r.slo_burn_starts);
      slo_burn_stops = sum (fun r -> r.slo_burn_stops);
      slo_burning_at_end = sum (fun r -> r.slo_burning_at_end);
      (* The four rates are [with_rates]'s. *)
      throughput_rps = 0.0;
      goodput_rps = 0.0;
      availability = 1.0;
      capacity_rps = 0.0;
      context_switches = sum (fun r -> r.context_switches);
      user_transitions = sum (fun r -> r.user_transitions);
      dtlb_misses = sum (fun r -> r.dtlb_misses);
      checksum = List.fold_left (fun acc r -> Int64.add acc r.checksum) 0L results;
      (* Each part serves on its own simulated core over the same interval:
         wall time is the max, busy time the sum. *)
      simulated_ns = List.fold_left (fun acc r -> Float.max acc r.simulated_ns) 0.0 results;
      cpu_busy_ns = List.fold_left (fun acc r -> acc +. r.cpu_busy_ns) 0.0 results;
      tenants;
    }

(* Each scalar counter and rate of a result once: its field name, its
   help text and its field, in the order [Shard.result_fingerprint]
   mixes them. *)
type getter = Int of (result -> int) | Float of (result -> float)

let counters =
  [
    ("completed", "requests that finished successfully", Int (fun r -> r.completed));
    ("failed", "requests killed by a trap or the watchdog", Int (fun r -> r.failed));
    ( "watchdog_kills",
      "failed requests stopped by the watchdog deadline",
      Int (fun r -> r.watchdog_kills) );
    ( "collateral_aborts",
      "in-flight requests aborted by a co-resident tenant's crash",
      Int (fun r -> r.collateral_aborts) );
    ("recycles", "instances re-created on recycled slots", Int (fun r -> r.recycles));
    ("pages_zeroed", "dirty OS pages dropped by slot recycles", Int (fun r -> r.pages_zeroed));
    ("admitted", "slot grants through admission", Int (fun r -> r.admitted));
    ("shed_sojourn", "CoDel / ticket-deadline sheds", Int (fun r -> r.shed_sojourn));
    ("shed_rate_limited", "per-tenant token-bucket sheds", Int (fun r -> r.shed_rate_limited));
    ("shed_queue_full", "admission-queue-at-capacity sheds", Int (fun r -> r.shed_queue_full));
    ( "shed_priority",
      "low-priority arrivals shed by the degradation ladder",
      Int (fun r -> r.shed_priority) );
    ( "deadline_misses",
      "completions past the request deadline",
      Int (fun r -> r.deadline_misses) );
    ("breaker_opens", "circuit-breaker trips", Int (fun r -> r.breaker_opens));
    ( "breaker_fast_fails",
      "requests refused by an open breaker",
      Int (fun r -> r.breaker_fast_fails) );
    ( "breakers_open_at_end",
      "breakers not closed at end of run",
      Int (fun r -> r.breakers_open_at_end) );
    ("degrade_steps", "degradation-ladder transitions", Int (fun r -> r.degrade_steps));
    ( "max_degrade_level",
      "deepest degradation-ladder level reached",
      Int (fun r -> r.max_degrade_level) );
    ("chaos_applied", "chaos perturbations applied", Int (fun r -> r.chaos_applied));
    ( "chaos_kills",
      "chaos kills that found an in-flight victim",
      Int (fun r -> r.chaos_kills) );
    ("slo_burn_starts", "SLO burn-rate alerts raised", Int (fun r -> r.slo_burn_starts));
    ("slo_burn_stops", "SLO burn-rate alerts cleared", Int (fun r -> r.slo_burn_stops));
    ( "slo_burning_at_end",
      "tenants with a fast-window burn alert raised at end of run",
      Int (fun r -> r.slo_burning_at_end) );
    ( "throughput_rps",
      "requests retired per simulated second",
      Float (fun r -> r.throughput_rps) );
    ( "goodput_rps",
      "in-deadline completions per simulated second",
      Float (fun r -> r.goodput_rps) );
    ("availability", "completions / attempts", Float (fun r -> r.availability));
    ("capacity_rps", "completions per CPU-busy second", Float (fun r -> r.capacity_rps));
    ("context_switches", "OS process switches", Int (fun r -> r.context_switches));
    ("user_transitions", "sandbox entries and exits", Int (fun r -> r.user_transitions));
    ("dtlb_misses", "simulated dTLB misses", Int (fun r -> r.dtlb_misses));
  ]

let prometheus_gauges r =
  List.map
    (function
      | name, help, Int get -> ("sfi_" ^ name ^ "_total", help, float_of_int (get r))
      | name, help, Float get -> ("sfi_" ^ name, help, get r))
    counters

(* --- the run state --------------------------------------------------- *)

(* [run] is set-up, one event loop and the result. The loop's stages
   (DESIGN.md, "The sim's request lifecycle") are top-level functions over
   one run state: [rearm], [acquire], [next_slot], [epoch] and the
   bookings [complete], [abort], [fail] and [shed]. *)

(* A request slot: one tenant's current request, and the tenant's
   outcomes. Each outcome is booked here once; the run-wide counts are
   sums over the slots ([totals]). *)
type request = {
  id : int;
  proc : int;
  mutable inst : Runtime.instance option;
  mutable had_inst : bool; (* ever held a slot (recycle accounting) *)
  mutable parked : bool; (* ticket parked in the admission queue *)
  mutable bk_admitted : bool; (* breaker already admitted this request *)
  mutable act : Runtime.activation option;
  mutable seq : int; (* per-slot completion count, seeds the next request *)
  mutable n_completed : int;
  mutable n_failed : int; (* failures and collateral aborts *)
  n_shed : int array; (* by trace reason code: the runtime's 0-2, [priority_shed] *)
  mutable n_breaker_opens : int;
  mutable n_sb : int; (* instructions retired in superblocks *)
  mutable n_instr : int;
  lat : Hist.t;
  e2e : Hist.t;
}

(* A run's float state in one all-float record, whose fields are stored
   unboxed: a write does not allocate. *)
type clocks = {
  mutable now : float; (* the simulated clock *)
  mutable busy : float; (* simulated CPU time spent serving *)
  mutable slice_start : float; (* when the current process's timeslice began *)
  mutable latency_until : float; (* end of a chaos latency window, 0 = none *)
  mutable latency_factor : float; (* IO-delay multiplier inside that window *)
  mutable window_end : float; (* end of the degradation ladder's window *)
}

(* The delay before a slot's next request: [Think], the exponential IO
   think time, at set-up, completion and sheds; [Retry], for a failed
   step: the next epoch while hedging is on, else [Think]; [Chaos_think],
   for a chaos kill, drawn from the chaos stream so that chaos never
   moves the workload's stream. *)
type delay = Think | Retry | Chaos_think

type state = {
  cfg : config;
  engines : Runtime.engine array; (* one per process *)
  rng : Prng.t;
  chaos_rng : Prng.t;
  trace : Trace.t; (* the effective sink: [cfg.trace], tapped by the flight recorder *)
  tm : clocks;
  ready : Ready.t;
  (* Per-slot times, unboxed: when the current logical request arrived,
     and when its current activation started. *)
  arrived : Float.Array.t;
  started : Float.Array.t;
  (* The open loop's arrivals: tenant [id]'s sorted times, and the index
     of the next one due. [None]: the closed loop. *)
  schedule : Float.Array.t array option;
  arr_next : int array;
  requests : request array;
  breakers : Breaker.t array option;
  slos : Slo.t array option;
  cost : Cost.t;
  epoch_fuel : int;
  deadline_fuel : int option;
  heap_os_pages : int;
  lifecycle_prev : int array; (* per process, at the last [charge] *)
  engine_cycles : int array; (* per process, at the last [charge] *)
  live : result; (* the counters the run books directly *)
  (* The low 32 bits of every result, summed: an int holds the sum exactly
     up to 2^30 completions, so it equals the int64 sum. *)
  mutable checksum : int;
  (* Chaos: the events still to apply, in time order. *)
  mutable chaos_pending : chaos_event list;
  mutable inst_fail_budget : int; (* slot acquisitions left to fail *)
  mutable current_proc : int;
  mutable rr_cursor : int;
  (* The degradation ladder: its level, and the sheds of the current
     window and the run of overloaded (> 0) or calm (< 0) windows that
     move it. *)
  mutable level : int;
  mutable window_sheds : int;
  mutable streak : int;
}

(* The trace's reason code for the ladder's priority shed; the runtime's
   admission codes cover 0-2. *)
let priority_shed = 3

let[@inline] bill st ns =
  st.tm.now <- st.tm.now +. ns;
  st.tm.busy <- st.tm.busy +. ns

(* --- arrival ---------------------------------------------------------- *)

let rec draw_delay st = function
  | Think ->
      (* "The value of the delay is drawn from a Poisson distribution at
         5ms": delays of a Poisson arrival process, i.e. exponential with a
         5 ms mean — "to model typical network request patterns". *)
      let d = Prng.exponential st.rng ~mean:st.cfg.io_mean_ns in
      if st.tm.latency_factor > 1.0 then d *. st.tm.latency_factor else d
  | Retry ->
      (* Hedged retries, until the ladder's L2, come back next epoch. *)
      if st.cfg.overload.hedged_retries && st.level < 2 then st.cfg.epoch_ns
      else draw_delay st Think
  | Chaos_think -> Prng.exponential st.chaos_rng ~mean:st.cfg.io_mean_ns

(* Move a slot on to its tenant's next logical request. In the open loop
   that is the next scheduled arrival, possibly already past: it has then
   been queueing and is ready at once, its e2e latency including the
   wait. A spent schedule parks the slot at infinity. *)
let rearm st r delay =
  let at =
    match st.schedule with
    | None -> st.tm.now +. draw_delay st delay
    | Some q ->
        let i = st.arr_next.(r.id) in
        if i >= Float.Array.length q.(r.id) then infinity
        else begin
          st.arr_next.(r.id) <- i + 1;
          Float.Array.get q.(r.id) i
        end
  in
  Ready.set_due st.ready r.id at ~now:st.tm.now;
  Float.Array.set st.arrived r.id at

let retry_next_epoch st r =
  Ready.set_due st.ready r.id (st.tm.now +. st.cfg.epoch_ns) ~now:st.tm.now

(* --- billing and the run's counters --------------------------------- *)

(* Lifecycle work in OS pages: the CoW runtime pays the dirty pages its
   recycles actually dropped plus one privatized vmctx page per
   instantiate; [legacy_lifecycle] re-prices every instantiate as the
   pre-refactor runtime's O(min_pages) work, a whole-heap madvise plus a
   full data-segment rewrite. *)
let lifecycle_pages st proc =
  let e = st.engines.(proc) in
  let instantiates = Runtime.instantiations e in
  if st.cfg.legacy_lifecycle then instantiates * 2 * st.heap_os_pages
  else Runtime.pages_zeroed e + instantiates

(* Advance the clock by the cycles an engine just spent, plus its new
   lifecycle pages at [page_zero_ns] each. *)
let charge st proc =
  let c = Machine.cycles (Runtime.machine st.engines.(proc)) in
  bill st (Cost.ns_of_cycles st.cost (c - st.engine_cycles.(proc)));
  st.engine_cycles.(proc) <- c;
  if st.cfg.page_zero_ns > 0.0 then begin
    let w = lifecycle_pages st proc in
    let dw = w - st.lifecycle_prev.(proc) in
    if dw > 0 then bill st (float_of_int dw *. st.cfg.page_zero_ns);
    st.lifecycle_prev.(proc) <- w
  end

let count p = function
  | None -> 0
  | Some arr -> Array.fold_left (fun n x -> if p x then n + 1 else n) 0 arr

let breakers_open st = count (fun b -> Breaker.state b <> Breaker.Closed) st.breakers

(* Tenants whose fast-window SLO alert is raised. *)
let burning st = count (fun s -> Slo.alerting s Slo.Fast) st.slos

(* The run's counters so far: the live record, with the values derived
   from the tenants' tallies, the engines and the clock. The one
   definition the result and the flight recorder's snapshot read; the
   rates and the per-tenant breakdown are left to [run]. *)
let totals st =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 st.requests in
  let shed code = sum (fun r -> r.n_shed.(code)) in
  let rt = Runtime.merged_metrics (Array.to_list (Array.map Runtime.metrics st.engines)) in
  {
    st.live with
    completed = sum (fun r -> r.n_completed);
    failed = sum (fun r -> r.n_failed) - st.live.collateral_aborts;
    pages_zeroed = rt.Runtime.m_pages_zeroed_on_recycle;
    admitted = rt.Runtime.m_admitted;
    shed_sojourn = shed (Runtime.shed_reason_code Runtime.Shed_sojourn);
    shed_rate_limited = shed (Runtime.shed_reason_code Runtime.Shed_rate_limited);
    shed_queue_full = shed (Runtime.shed_reason_code Runtime.Shed_queue_full);
    shed_priority = shed priority_shed;
    breaker_opens = sum (fun r -> r.n_breaker_opens);
    breakers_open_at_end = breakers_open st;
    slo_burning_at_end = burning st;
    user_transitions = rt.Runtime.m_transitions;
    dtlb_misses =
      Array.fold_left (fun acc e -> acc + Machine.dtlb_misses (Runtime.machine e)) 0 st.engines;
    checksum = Int64.of_int st.checksum;
    simulated_ns = st.tm.now;
    cpu_busy_ns = st.tm.busy;
  }

(* --- flight recorder: post-mortem freezes ---------------------------- *)

(* Not read from [counters]: a bundle snapshots live ladder, admission
   and machine state besides the result's counters, in a pinned order
   that the golden flight digest hashes. *)
let flight_counters st =
  let c = totals st in
  let fold f = Array.fold_left (fun acc e -> acc + f e) 0 st.engines in
  let mach f = fold (fun e -> f (Runtime.machine e)) in
  let n = float_of_int in
  [
    ("clock_ns", st.tm.now);
    ("completed", n c.completed);
    ("failed", n c.failed);
    ("watchdog_kills", n c.watchdog_kills);
    ("collateral_aborts", n c.collateral_aborts);
    ("recycles", n c.recycles);
    ("shed_sojourn", n c.shed_sojourn);
    ("shed_rate_limited", n c.shed_rate_limited);
    ("shed_queue_full", n c.shed_queue_full);
    ("shed_priority", n c.shed_priority);
    ("breaker_opens", n c.breaker_opens);
    ("breaker_fast_fails", n c.breaker_fast_fails);
    ("breakers_open", n c.breakers_open_at_end);
    ("admission_waiting", n (fold Runtime.waiting));
    ("ladder_level", n st.level);
    ("chaos_applied", n c.chaos_applied);
    ("machine_cycles", n (mach Machine.cycles));
    ("machine_instructions", n (mach Machine.instructions));
    ("dtlb_misses", n c.dtlb_misses);
    ("superblocks_retired", n (mach Machine.superblock_retired));
    ("transitions", n c.user_transitions);
  ]

let freeze st reason =
  match st.cfg.flight with
  | None -> ()
  | Some fr ->
      Flight.freeze fr ~reason ~at_ns:(int_of_float st.tm.now) ~counters:(flight_counters st)

(* --- SLO burn-rate tracking ------------------------------------------ *)

(* Edge-trigger a tenant's alerts: count transitions and emit the
   slo.burn_start/stop markers. *)
let slo_transitions st id s =
  List.iter
    (fun tr ->
      let burn_milli = int_of_float (tr.Slo.tr_burn *. 1000.0) in
      let window = match tr.Slo.tr_window with Slo.Fast -> 0 | Slo.Slow -> 1 in
      if tr.Slo.tr_started then begin
        st.live.slo_burn_starts <- st.live.slo_burn_starts + 1;
        Trace.slo_burn_start st.trace ~tenant:id ~burn_milli ~window
      end
      else begin
        st.live.slo_burn_stops <- st.live.slo_burn_stops + 1;
        Trace.slo_burn_stop st.trace ~tenant:id ~burn_milli ~window
      end)
    (Slo.evaluate s ~now:st.tm.now)

let slo_record st id ~good =
  match st.slos with
  | None -> ()
  | Some arr ->
      let s = arr.(id) in
      Slo.record s ~now:st.tm.now ~good;
      slo_transitions st id s

(* --- circuit breakers ------------------------------------------------- *)

let note_breaker st id b prev =
  let now_in = Breaker.state b in
  if now_in <> prev then
    match now_in with
    | Breaker.Open ->
        let r = st.requests.(id) in
        r.n_breaker_opens <- r.n_breaker_opens + 1;
        Trace.breaker_open st.trace ~tenant:id
          ~backoff:(int_of_float (Breaker.retry_at b -. st.tm.now));
        freeze st "breaker.open"
    | Breaker.Half_open -> Trace.breaker_half_open st.trace ~tenant:id
    | Breaker.Closed -> Trace.breaker_close st.trace ~tenant:id

(* Feed tenant [id]'s breaker a completion that took [lat], or a failure
   when [lat] is nan. *)
let[@inline] feed_breaker st id lat =
  match st.breakers with
  | None -> ()
  | Some arr ->
      let b = arr.(id) in
      let prev = Breaker.state b in
      if Float.is_nan lat then Breaker.on_failure b ~now:st.tm.now
      else Breaker.on_slow b ~now:st.tm.now ~elapsed_ns:lat;
      note_breaker st id b prev

(* May tenant [r.id]'s next request proceed? An open breaker fast-fails it
   without touching the pool; the refusal parks the request until the
   breaker's next probe time. Fast-fails are not serving failures — the
   request never entered service — so they are counted separately. The
   breaker is consulted once per logical request ([bk_admitted]): a
   request it admitted that then waits on admission or a transient
   instantiate failure is not re-asked — in particular a half-open probe
   delayed that way must not fast-fail its own tenant forever. *)
let breaker_allow st r =
  match st.breakers with
  | None -> true
  | Some arr ->
      let b = arr.(r.id) in
      let prev = Breaker.state b in
      let ok = Breaker.allow b ~now:st.tm.now in
      note_breaker st r.id b prev;
      if ok then r.bk_admitted <- true
      else begin
        st.live.breaker_fast_fails <- st.live.breaker_fast_fails + 1;
        Ready.set_due st.ready r.id
          (match Breaker.state b with
          | Breaker.Open -> Float.max (Breaker.retry_at b) (st.tm.now +. st.cfg.epoch_ns)
          | _ -> st.tm.now +. st.cfg.epoch_ns)
          ~now:st.tm.now
      end;
      ok

(* --- the graceful-degradation ladder --------------------------------- *)

let apply_level st lvl =
  st.level <- lvl;
  st.live.max_degrade_level <- max st.live.max_degrade_level lvl;
  st.live.degrade_steps <- st.live.degrade_steps + 1;
  (* L1: tighten admission and keep recycle headroom. L2: + stop hedging
     failed requests. L3 additionally sheds low-priority arrivals (in
     [acquire]). Stepping down unwinds in the same order. *)
  let pressure = if lvl >= 1 then 0.5 else 1.0 in
  Array.iter
    (fun e ->
      Runtime.set_admission_pressure e pressure;
      let slots = Runtime.num_slots e in
      let reserve = if lvl >= 1 then min (slots - 1) (max 1 (slots / 8)) else 0 in
      Runtime.set_slot_reserve e reserve)
    st.engines;
  Trace.degrade_step st.trace ~level:lvl

let ladder_tick st =
  if st.cfg.overload.degradation && st.tm.now >= st.tm.window_end then begin
    (* Re-evaluate burn-rate alerts at every window boundary so alerts
       also clear while a tenant is idle (its windows slide empty). *)
    Option.iter (Array.iteri (slo_transitions st)) st.slos;
    (* SLO-aware trigger: shedding starts when any tenant is burning
       its fast error-budget window, not only on queue sojourn. *)
    let overloaded = st.window_sheds > 0 || burning st > 0 in
    st.window_sheds <- 0;
    while st.tm.window_end <= st.tm.now do
      st.tm.window_end <- st.tm.window_end +. (4.0 *. st.cfg.epoch_ns)
    done;
    st.streak <- (if overloaded then max st.streak 0 + 1 else min st.streak 0 - 1);
    if st.streak >= 2 && st.level < 3 then begin
      st.streak <- 0;
      apply_level st (st.level + 1)
    end
    else if st.streak <= -2 && st.level > 0 then begin
      st.streak <- 0;
      apply_level st (st.level - 1)
    end
  end

(* --- booking: the ways a request ends -------------------------------- *)

let kill_live r = match r.inst with Some i when Runtime.live i -> Runtime.kill i | _ -> ()

(* An abort: the activation ends without a result. *)
let abort st r =
  r.n_failed <- r.n_failed + 1;
  slo_record st r.id ~good:false;
  Trace.request_end st.trace ~tenant:r.id ~ok:false;
  r.act <- None

(* A failure: an abort that also feeds the tenant's breaker and ends the
   logical request, so the slot's next request runs on a fresh seed. The
   caller re-arms the slot. *)
let fail st r =
  abort st r;
  feed_breaker st r.id Float.nan;
  r.seq <- r.seq + 1;
  r.parked <- false;
  r.bk_admitted <- false

(* A shed: the client behind the refused request gives up and issues a
   fresh one later. An admission shed ([Some reason]) also re-opens a
   half-open breaker whose probe it refused; the ladder's priority shed
   ([None]) leaves the probe outstanding. *)
let shed st r reason =
  let code = match reason with None -> priority_shed | Some why -> Runtime.shed_reason_code why in
  r.n_shed.(code) <- r.n_shed.(code) + 1;
  (match reason with
  | Some (Runtime.Shed_sojourn | Runtime.Shed_queue_full) ->
      st.window_sheds <- st.window_sheds + 1
  | Some Runtime.Shed_rate_limited | None -> ());
  slo_record st r.id ~good:false;
  (match st.breakers with
  | Some arr when reason <> None && Breaker.state arr.(r.id) = Breaker.Half_open ->
      feed_breaker st r.id Float.nan
  | _ -> ());
  r.parked <- false;
  r.bk_admitted <- false;
  rearm st r Think

(* A completion, booked after the epoch's [charge] so its latency
   includes the execution time just billed. *)
let[@inline] complete st r arrival =
  r.n_completed <- r.n_completed + 1;
  let lat = st.tm.now -. Float.Array.get st.started r.id in
  let e2e = st.tm.now -. arrival in
  (match st.cfg.overload.request_deadline_ns with
  | Some d when e2e > d -> st.live.deadline_misses <- st.live.deadline_misses + 1
  | _ -> ());
  feed_breaker st r.id lat;
  Trace.request_end st.trace ~tenant:r.id ~ok:true;
  (* The exemplar points at the request-end event just stored, so a
     percentile spike links to the exact span in the export. *)
  Hist.record_exemplar r.lat lat ~index:(max 0 (Trace.length st.trace - 1));
  Hist.record r.e2e e2e;
  slo_record st r.id
    ~good:(match st.cfg.overload.slo with Some sc -> lat <= sc.Slo.latency_ns | None -> true)

(* --- slot acquisition ------------------------------------------------- *)

(* Crash recovery / slot acquisition: get a slot through admission (the
   CoDel path when armed, the bounded FIFO retry queue otherwise).
   Returns false while the request must wait or was shed. *)
let take_slot st r =
  match r.inst with
  | Some i when Runtime.live i -> true
  | _ when st.inst_fail_budget > 0 ->
      (* Chaos: transient instantiate failure — behaves like a full pool;
         the request retries next epoch. *)
      st.inst_fail_budget <- st.inst_fail_budget - 1;
      retry_next_epoch st r;
      false
  | _ -> (
      match Runtime.admit st.engines.(r.proc) ~ticket:r.id ~tenant:r.id ~now:st.tm.now with
      | `Ready inst ->
          if r.had_inst then st.live.recycles <- st.live.recycles + 1;
          r.had_inst <- true;
          r.parked <- false;
          r.inst <- Some inst;
          true
      | `Shed reason when st.cfg.overload.admission <> None ->
          shed st r (Some reason);
          false
      | `Wait | `Shed _ ->
          (* A wait, or the legacy FIFO queue's reject, retries next epoch:
             the FIFO path keeps its historical PRNG stream byte-for-byte.
             Under admission the waiting ticket parks. *)
          if st.cfg.overload.admission <> None then r.parked <- true;
          retry_next_epoch st r;
          false)

(* May the picked slot step now? The ladder's L3 sheds a low-priority
   arrival outright; a new request then asks its breaker, then takes a
   slot. *)
let acquire st r =
  if st.level >= 3 && r.act = None && (not r.parked) && st.cfg.overload.low_priority r.id
  then begin
    shed st r None;
    Trace.admission_shed st.trace ~tenant:r.id ~sojourn:0 ~reason:priority_shed;
    false
  end
  else (r.act <> None || r.parked || r.bk_admitted || breaker_allow st r) && take_slot st r

(* --- the epoch -------------------------------------------------------- *)

(* Which handler serves this request: deliberately misbehaving tenants
   (overload policy) crash-loop or spin on every request; otherwise the
   per-request fault model draws one with the configured probabilities. *)
let draw_entry st id =
  let ov = st.cfg.overload and f = st.cfg.faults in
  if List.mem id ov.crash_tenants then "misbehave_trap"
  else if List.mem id ov.runaway_tenants then "misbehave_spin"
  else if not (f.trap_rate > 0.0 || f.runaway_rate > 0.0) then "handle"
  else begin
    let x = Prng.float st.rng 1.0 in
    if x < f.trap_rate then "misbehave_trap"
    else if x < f.trap_rate +. f.runaway_rate then "misbehave_spin"
    else "handle"
  end

(* Blast radius of a crash. Under multiprocess scaling a trap is a process
   death: every co-resident instance dies and its in-flight request is
   aborted. Under ColorGuard only the faulting instance is torn down. *)
let crash_process st proc ~except =
  let respawn = st.cfg.faults.respawn_ns in
  Array.iter
    (fun r2 ->
      if r2.proc = proc && r2.id <> except then begin
        if r2.act <> None then begin
          st.live.collateral_aborts <- st.live.collateral_aborts + 1;
          abort st r2
        end;
        kill_live r2;
        Ready.set_due st.ready r2.id (st.tm.now +. respawn) ~now:st.tm.now
      end)
    st.requests;
  bill st respawn

(* A step that trapped or hit the watchdog. *)
let fail_step st r ~crash =
  fail st r;
  freeze st "fault";
  (match st.cfg.mode with
  | Multiprocess _ when crash -> crash_process st r.proc ~except:r.id
  | _ -> ());
  rearm st r Retry

let start st r inst =
  let seed = Int64.of_int (1 + r.id + (r.seq * 8191)) in
  let a = Runtime.start_call ?deadline_fuel:st.deadline_fuel inst (draw_entry st r.id) [ seed ] in
  r.act <- Some a;
  Float.Array.set st.started r.id st.tm.now;
  Trace.request_begin st.trace ~tenant:r.id;
  a

(* One epoch of fuel for the slot's activation, started if need be; then
   the outcome's booking and [charge]. The failure paths keep their
   pre-charge due times (retry, respawn). *)
let epoch st r =
  let inst = match r.inst with Some i -> i | None -> assert false in
  let arrival = Float.Array.get st.arrived r.id in
  let act = match r.act with Some a -> a | None -> start st r inst in
  (* Tenant-attributed superblock occupancy: the engine's counters are
     monotonic across requests, so per-slice deltas sum cleanly even when
     the instance is killed or recycled mid-request. *)
  let mach = Runtime.machine st.engines.(r.proc) in
  let sb0 = Machine.superblock_retired mach in
  let in0 = Machine.instructions mach in
  let finished =
    match Runtime.step act ~fuel:st.epoch_fuel with
    | `Done v ->
        st.checksum <- st.checksum + Int64.to_int (Int64.logand v 0xFFFFFFFFL);
        r.act <- None;
        r.seq <- r.seq + 1;
        (* High-churn mode: every request runs on a fresh instance, the
           §6.4.3 FaaS pattern. Release recycles the slot (dirty pages
           revert to the image); the next request re-instantiates. *)
        if st.cfg.churn then Runtime.release inst;
        r.bk_admitted <- false;
        rearm st r Think;
        true
    | `Trapped _ ->
        (* The sandbox crashed; Runtime.step already killed the instance
           and recycled its slot. The request failed — count it, never
           abort the simulation. *)
        fail_step st r ~crash:true;
        false
    | `Fault fault ->
        (* A watchdog kill (a runaway loop exceeded its deadline), or the
           instance died under us (e.g. collateral of a neighbour's crash):
           retry on a fresh instance. *)
        if fault = Runtime.Fuel_exhausted then st.live.watchdog_kills <- st.live.watchdog_kills + 1;
        fail_step st r ~crash:false;
        false
    | `More -> false (* preempted; stays ready *)
  in
  r.n_sb <- r.n_sb + (Machine.superblock_retired mach - sb0);
  r.n_instr <- r.n_instr + (Machine.instructions mach - in0);
  charge st r.proc;
  if finished then complete st r arrival

(* --- chaos: seeded perturbations applied to the live run ------------- *)

(* Kill a random in-flight instance: the victim's request fails
   (attributed to the victim alone — that's the blast-radius invariant
   the harness checks) and the slot recycles. The victim, or -1. *)
let chaos_kill st =
  let candidates =
    Array.to_list st.requests
    |> List.filter (fun r ->
           r.act <> None && match r.inst with Some i -> Runtime.live i | None -> false)
  in
  match candidates with
  | [] -> -1
  | l ->
      let r = List.nth l (Prng.int st.chaos_rng (List.length l)) in
      st.live.chaos_kills <- st.live.chaos_kills + 1;
      fail st r;
      kill_live r;
      rearm st r Chaos_think;
      r.id

let apply_chaos st ev =
  let victim, reason =
    match ev.action with
    | Chaos_kill -> (chaos_kill st, "chaos.kill")
    | Chaos_latency { factor; window_ns } ->
        st.tm.latency_factor <- factor;
        st.tm.latency_until <- st.tm.now +. window_ns;
        (-1, "chaos.latency")
    | Chaos_instantiate_fail n ->
        st.inst_fail_budget <- st.inst_fail_budget + n;
        (-1, "chaos.instantiate_fail")
  in
  st.live.chaos_applied <- st.live.chaos_applied + 1;
  freeze st reason;
  Option.iter
    (fun fn ->
      fn
        {
          cr_index = st.live.chaos_applied - 1;
          cr_at_ns = ev.at_ns;
          cr_action = ev.action;
          cr_victim = victim;
          cr_failed = Array.map (fun r -> r.n_failed) st.requests;
        })
    st.cfg.on_perturbation

let rec drain_chaos st =
  match st.chaos_pending with
  | ev :: rest when ev.at_ns <= st.tm.now ->
      st.chaos_pending <- rest;
      apply_chaos st ev;
      drain_chaos st
  | _ -> ()

let chaos_tick st =
  if st.tm.latency_until > 0.0 && st.tm.now >= st.tm.latency_until then begin
    st.tm.latency_factor <- 1.0;
    st.tm.latency_until <- 0.0
  end;
  drain_chaos st

(* --- scheduling ------------------------------------------------------- *)

(* The first ready slot of process [proc] at or after the cursor,
   cyclically; [-1] if none. The cursor stays. *)
let first_ready st proc =
  Ready.advance st.ready ~now:st.tm.now;
  Ready.pick st.ready ~cursor:st.rr_cursor ~proc

let switch_to st proc =
  st.live.context_switches <- st.live.context_switches + 1;
  bill st os_switch_ns;
  (* The incoming process finds the shared TLB polluted by whoever ran in
     between: model as a flush of its TLB state. *)
  Machine.flush_tlb (Runtime.machine st.engines.(proc));
  st.current_proc <- proc;
  st.tm.slice_start <- st.tm.now

(* The next process after the current one with a ready slot, or -1. A
   probe: it leaves the cursor where it is, so after the switch the
   scheduler steps the slot that justified it. With one process nothing
   is probed. *)
let other_with_work st =
  let nprocs = Array.length st.engines in
  let rec from k =
    let p = (st.current_proc + k) mod nprocs in
    if k >= nprocs then -1 else if first_ready st p >= 0 then p else from (k + 1)
  in
  from 1

(* Nothing is ready: jump to the next due slot or chaos event. Only
   called with no slot ready, so the ready set's earliest future due time
   is the earliest of all. *)
let idle_jump st =
  let fmin (a : float) b = if a <= b then a else b in
  let next_chaos = match st.chaos_pending with ev :: _ -> ev.at_ns | [] -> infinity in
  let next = fmin (fmin (Ready.next_ready_time st.ready) next_chaos) st.cfg.duration_ns in
  if not (st.tm.now >= next) then st.tm.now <- next

(* The slot to step next, or -1 after a process switch or an idle jump.
   The OS round-robins the processes on [epoch_ns] timeslices; ColorGuard
   is one process, which never switches. Within a process the cursor
   moves past each pick (processor sharing): every ready request gets an
   epoch in turn, in-flight requests hold their slots across preemption,
   and excess demand queues at admission. *)
let next_slot st =
  (* A timeslice expires: move on if someone else has work. *)
  if st.tm.now -. st.tm.slice_start >= st.cfg.epoch_ns then begin
    let p = other_with_work st in
    if p >= 0 then switch_to st p else st.tm.slice_start <- st.tm.now
  end;
  let i = first_ready st st.current_proc in
  if i >= 0 then st.rr_cursor <- (i + 1) mod Array.length st.requests
  else begin
    let p = other_with_work st in
    if p >= 0 then switch_to st p else idle_jump st
  end;
  i

(* --- set-up, the loop and the result --------------------------------- *)

(* The open loop's per-tenant arrival times, each tenant's sorted.
   [Workloads.synthesize] emits arrivals in time order, so filling front
   to back leaves each tenant's times sorted and the scan finds nothing
   to do. *)
let arrival_schedule concurrency arr =
  let counts = Array.make concurrency 0 in
  Array.iter (fun a -> counts.(a.Workloads.tenant) <- counts.(a.Workloads.tenant) + 1) arr;
  let per = Array.map (fun n -> Float.Array.make n 0.0) counts in
  Array.fill counts 0 concurrency 0;
  Array.iter
    (fun a ->
      let t = a.Workloads.tenant in
      Float.Array.set per.(t) counts.(t) a.Workloads.at_ns;
      counts.(t) <- counts.(t) + 1)
    arr;
  let in_order a =
    let rec from i =
      i >= Float.Array.length a
      || (Float.Array.get a (i - 1) <= Float.Array.get a i && from (i + 1))
    in
    from 1
  in
  Array.iter (fun a -> if not (in_order a) then Float.Array.stable_sort Float.compare a) per;
  per

let setup cfg =
  (match validate cfg with Ok () -> () | Error msg -> invalid_arg ("Sim: " ^ msg));
  let m = Workloads.module_of cfg.workload in
  let engines = Array.of_list (fresh_engines cfg m) in
  let nprocs = Array.length engines in
  let n = cfg.concurrency and ov = cfg.overload in
  let rng = Prng.create ~seed:cfg.seed in
  (* Chaos draws its own PRNG stream so perturbation policy (victim
     choice, respawn delays) never perturbs the workload's stream. The
     stream is derived with [Prng.split] — an xor of the seed (the old
     derivation) leaves the child SplitMix64 state on the same
     golden-gamma lattice as the parent and the streams correlate, which
     breaks chaos determinism fingerprints once sharding multiplies the
     number of parallel consumers of one root seed. *)
  let chaos_rng = Prng.split rng 0 in
  (* The flight recorder taps the primary ring (or stands in for it on
     untraced runs). Everything emits into [st.trace], never [cfg.trace]. *)
  let trace = match cfg.flight with Some fr -> Flight.tap fr cfg.trace | None -> cfg.trace in
  Array.iter (fun e -> Runtime.set_admission e ov.admission) engines;
  if ov.admission <> None then
    (* Admission/breaker decisions are trace-worthy: route the engines'
       event streams into the sim's sink so Perfetto shows shed/grant
       markers on the tenant lanes. Legacy runs keep engine tracing off. *)
    Array.iter (fun e -> Runtime.set_trace e trace) engines;
  (* With a slot pool smaller than the closed-loop population, slots are a
     contended resource acquired through admission; otherwise every
     request gets its instance up front (the historical behavior). *)
  let prewarm = match ov.pool_slots with None -> true | Some p -> p >= n in
  let cost = Machine.cost_model (Runtime.machine engines.(0)) in
  let epoch_fuel = Cost.cycles_of_ns cost cfg.epoch_ns in
  let st =
    {
      cfg;
      engines;
      rng;
      chaos_rng;
      trace;
      tm =
        {
          now = 0.0;
          busy = 0.0;
          slice_start = 0.0;
          latency_until = 0.0;
          latency_factor = 1.0;
          window_end = 4.0 *. cfg.epoch_ns;
        };
      ready = Ready.create ~slots:n ~procs:nprocs;
      arrived = Float.Array.make n 0.0;
      started = Float.Array.make n 0.0;
      schedule = Option.map (arrival_schedule n) cfg.arrivals;
      arr_next = Array.make n 0;
      requests =
        Array.init n (fun id ->
            {
              id;
              proc = id mod nprocs;
              inst = None;
              had_inst = prewarm;
              parked = false;
              bk_admitted = false;
              act = None;
              seq = 0;
              n_completed = 0;
              n_failed = 0;
              n_shed = Array.make (priority_shed + 1) 0;
              n_breaker_opens = 0;
              n_sb = 0;
              n_instr = 0;
              lat = Hist.create ();
              e2e = Hist.create ();
            });
      breakers =
        Option.map
          (fun bc ->
            Array.init n (fun id ->
                (* Per-tenant jitter streams, split from the root seed
                   (index 0 is the chaos stream). *)
                Breaker.create ~seed:(Prng.split_seed ~seed:cfg.seed (id + 1)) bc))
          ov.breaker;
      slos = Option.map (fun sc -> Array.init n (fun _ -> Slo.create sc)) ov.slo;
      cost;
      epoch_fuel;
      (* The watchdog deadline bounds every request, not only fault-injected
         runs: a runaway guest must be stopped even when the fault model is
         off (e.g. a chaos run or a deliberately misbehaving tenant). *)
      deadline_fuel = Some (cfg.faults.deadline_epochs * epoch_fuel);
      heap_os_pages =
        (match m.Sfi_wasm.Ast.memory with
        | Some mem ->
            mem.Sfi_wasm.Ast.min_pages * (Sfi_wasm.Ast.page_size / Sfi_vmem.Space.page_size)
        | None -> 0);
      lifecycle_prev = Array.make nprocs 0;
      engine_cycles = Array.make nprocs 0;
      live = merge ~tenants:[||] [];
      checksum = 0;
      chaos_pending = List.sort (fun a b -> compare a.at_ns b.at_ns) cfg.chaos;
      inst_fail_budget = 0;
      current_proc = 0;
      rr_cursor = 0;
      level = 0;
      window_sheds = 0;
      streak = 0;
    }
  in
  Array.iter
    (fun r ->
      rearm st r Think;
      if prewarm then r.inst <- Some (Runtime.instantiate engines.(r.proc)))
    st.requests;
  (* Startup instantiation is warm-up, not serving time: snapshot after the
     requests are armed so only churn-driven lifecycle work is billed. *)
  Array.iteri (fun p _ -> st.lifecycle_prev.(p) <- lifecycle_pages st p) engines;
  (* Request spans run on the simulated clock, one trace track per request
     slot (= tenant), so a Perfetto load shows each tenant's activations as
     nested bars over sim time. *)
  let tm = st.tm in
  Trace.set_clock trace (fun () -> int_of_float tm.now);
  st

let tenant_stats st =
  let pct h p = if Hist.count h = 0 then 0.0 else Hist.percentile h p in
  Array.map
    (fun r ->
      {
        t_id = r.id;
        t_completed = r.n_completed;
        t_failed = r.n_failed;
        t_shed = Array.fold_left ( + ) 0 r.n_shed;
        t_breaker_opens = r.n_breaker_opens;
        t_breaker_state =
          (match st.breakers with
          | None -> "-"
          | Some arr -> Breaker.state_name (Breaker.state arr.(r.id)));
        t_p50_ns = pct r.lat 50.0;
        t_p95_ns = pct r.lat 95.0;
        t_p99_ns = pct r.lat 99.0;
        t_p99_e2e_ns = pct r.e2e 99.0;
        t_sb_share =
          (if r.n_instr = 0 then 0.0 else float_of_int r.n_sb /. float_of_int r.n_instr);
        t_burn =
          (match st.slos with
          | Some arr -> Slo.burn arr.(r.id) ~now:st.tm.now Slo.Fast
          | None -> 0.0);
        t_lat_hist = r.lat;
        t_e2e_hist = r.e2e;
      })
    st.requests

let run cfg =
  let st = setup cfg in
  while st.tm.now < cfg.duration_ns do
    chaos_tick st;
    ladder_tick st;
    let i = next_slot st in
    if i >= 0 then begin
      let r = st.requests.(i) in
      if acquire st r then epoch st r
    end
  done;
  (* Balance the trace: activations still in flight when the simulated
     duration expires get their span closed (not counted as failures). *)
  Array.iter
    (fun r -> if r.act <> None then Trace.request_end st.trace ~tenant:r.id ~ok:false)
    st.requests;
  (* Final burn-rate sweep so [slo_burning_at_end] reflects the stream's
     last state, then stamp the ring's fingerprint into the exemplars. *)
  Option.iter (Array.iteri (slo_transitions st)) st.slos;
  if Trace.enabled st.trace then begin
    let fp = Trace.fingerprint st.trace in
    Array.iter (fun r -> Hist.seal_exemplars r.lat fp) st.requests
  end;
  with_rates { (totals st) with tenants = tenant_stats st }

let throughput_gain ~colorguard ~multiprocess =
  (* Capacity per core-second: below CPU saturation both strategies finish
     the same IO-bound load, but multiprocess scaling burns core time on
     process switches and cold TLBs — time that at scale would have served
     additional requests. This is the per-core efficiency Figure 6 reports. *)
  (colorguard.capacity_rps -. multiprocess.capacity_rps) /. multiprocess.capacity_rps *. 100.0

(* The `sfi top` table formats live here so the golden-output test can pin
   the column alignment without shelling out to the binary. *)
let top_header ~breakers =
  if breakers then
    Printf.sprintf "%6s %8s %6s %6s %8s %10s %7s %10s %10s %10s %6s" "TENANT" "OK"
      "FAIL" "SHED" "BRKOPEN" "BRK" "BURN" "P50(ms)" "P95(ms)" "P99(ms)" "SB%"
  else
    Printf.sprintf "%6s %8s %6s %10s %10s %10s %6s" "TENANT" "OK" "FAIL" "P50(ms)"
      "P95(ms)" "P99(ms)" "SB%"

let top_row ~breakers t =
  if breakers then
    Printf.sprintf "%6d %8d %6d %6d %8d %10s %7.2f %10.2f %10.2f %10.2f %5.1f%%"
      t.t_id t.t_completed t.t_failed t.t_shed t.t_breaker_opens t.t_breaker_state
      t.t_burn (t.t_p50_ns /. 1e6) (t.t_p95_ns /. 1e6) (t.t_p99_ns /. 1e6)
      (100.0 *. t.t_sb_share)
  else
    Printf.sprintf "%6d %8d %6d %10.2f %10.2f %10.2f %5.1f%%" t.t_id t.t_completed
      t.t_failed (t.t_p50_ns /. 1e6) (t.t_p95_ns /. 1e6) (t.t_p99_ns /. 1e6)
      (100.0 *. t.t_sb_share)
