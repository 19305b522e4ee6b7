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
  fair_scheduling : bool;
  arrivals : Workloads.arrival array option;
}

let default_config ?(mode = Colorguard) ?(workload = Workloads.Hash_balance)
    ?(faults = no_faults) ?(churn = false) ?(page_zero_ns = 0.0)
    ?(legacy_lifecycle = false) ?(overload = no_overload) ?engine ?(chaos = [])
    ?on_perturbation ?(fair_scheduling = false) ?flight () =
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
    fair_scheduling;
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

type result = {
  completed : int;
  failed : int;
  watchdog_kills : int;
  collateral_aborts : int;
  recycles : int;
  pages_zeroed : int;
  admitted : int;
  shed_sojourn : int;
  shed_rate_limited : int;
  shed_queue_full : int;
  shed_priority : int;
  deadline_misses : int;
  breaker_opens : int;
  breaker_fast_fails : int;
  breakers_open_at_end : int;
  degrade_steps : int;
  max_degrade_level : int;
  chaos_applied : int;
  chaos_kills : int;
  slo_burn_starts : int;
  slo_burn_stops : int;
  slo_burning_at_end : int;
  throughput_rps : float;
  goodput_rps : float;
  availability : float;
  capacity_rps : float;
  context_switches : int;
  user_transitions : int;
  dtlb_misses : int;
  checksum : int64;
  simulated_ns : float;
  cpu_busy_ns : float;
  tenants : tenant_stat array;
}

type request = {
  id : int;
  proc : int;
  mutable inst : Runtime.instance option;
  mutable had_inst : bool; (* ever held a slot (recycle accounting) *)
  mutable parked : bool; (* ticket parked in the admission queue *)
  mutable bk_admitted : bool; (* breaker already admitted this request *)
  mutable act : Runtime.activation option;
  mutable seq : int; (* per-slot completion count, seeds the next request *)
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
   negative delay, page price or respawn time would move the clock
   backwards. *)
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
  else if not (finite_nonneg f.respawn_ns) then
    Error "faults.respawn_ns must be finite and >= 0"
  else if f.deadline_epochs < 1 then Error "faults.deadline_epochs must be >= 1"
  else Ok ()

let fresh_engines cfg m =
  match cfg.mode with
  | Multiprocess n ->
      List.init n (fun _ ->
          let compiled = Codegen.compile (Codegen.default_config ()) m in
          Runtime.create_engine ~tlb:server_tlb ?engine:cfg.engine compiled)
  | Colorguard ->
      let params =
        {
          Pool.num_slots =
            (match cfg.overload.pool_slots with
            | Some n -> n
            | None -> cfg.concurrency);
          max_memory_bytes = 4 * Units.mib;
          expected_slot_bytes = 4 * Units.mib;
          guard_bytes = 32 * Units.mib;
          pre_guard_enabled = false;
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
      let compiled =
        Codegen.compile { (Codegen.default_config ()) with Codegen.colorguard = true } m
      in
      [
        Runtime.create_engine ~tlb:server_tlb ~allocator:(Runtime.Pool layout)
          ?engine:cfg.engine compiled;
      ]

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

let run cfg =
  (match validate cfg with Ok () -> () | Error msg -> invalid_arg ("Sim: " ^ msg));
  let m = Workloads.module_of cfg.workload in
  let engines = Array.of_list (fresh_engines cfg m) in
  let nprocs = Array.length engines in
  let rng = Prng.create ~seed:cfg.seed in
  let ov = cfg.overload in
  (* Effective trace sink: the flight recorder taps the primary ring (or
     stands in for it on untraced runs). Everything below emits into
     [trace], never [cfg.trace] directly. *)
  let trace =
    match cfg.flight with
    | Some fr -> Flight.tap fr cfg.trace
    | None -> cfg.trace
  in
  (* Chaos draws its own PRNG stream so perturbation policy (victim
     choice, respawn delays) never perturbs the workload's stream. The
     stream is derived with [Prng.split] — an xor of the seed (the old
     derivation) leaves the child SplitMix64 state on the same
     golden-gamma lattice as the parent and the streams correlate, which
     breaks chaos determinism fingerprints once sharding multiplies the
     number of parallel consumers of one root seed. *)
  let chaos_rng = Prng.split rng 0 in
  let window_len = 4.0 *. cfg.epoch_ns in
  let tm =
    {
      now = 0.0;
      busy = 0.0;
      slice_start = 0.0;
      latency_until = 0.0;
      latency_factor = 1.0;
      window_end = window_len;
    }
  in
  let io_delay () =
    (* "The value of the delay is drawn from a Poisson distribution at
       5ms": delays of a Poisson arrival process, i.e. exponential with a
       5 ms mean — "to model typical network request patterns". *)
    let d = Prng.exponential rng ~mean:cfg.io_mean_ns in
    if tm.latency_factor > 1.0 then d *. tm.latency_factor else d
  in
  Array.iter (fun e -> Runtime.set_admission e ov.admission) engines;
  if ov.admission <> None then
    (* Admission/breaker decisions are trace-worthy: route the engines'
       event streams into the sim's sink so Perfetto shows shed/grant
       markers on the tenant lanes. Legacy runs keep engine tracing off. *)
    Array.iter (fun e -> Runtime.set_trace e trace) engines;
  let breakers =
    match ov.breaker with
    | None -> None
    | Some bc ->
        Some
          (Array.init cfg.concurrency (fun id ->
               (* Per-tenant jitter streams, split from the root seed
                  (index 0 is the chaos stream). *)
               Breaker.create ~seed:(Prng.split_seed ~seed:cfg.seed (id + 1)) bc))
  in
  let f = cfg.faults in
  let has_faults = f.trap_rate > 0.0 || f.runaway_rate > 0.0 in
  (* With a slot pool smaller than the closed-loop population, slots are a
     contended resource acquired through admission; otherwise every
     request gets its instance up front (the historical behavior). *)
  let prewarm =
    match ov.pool_slots with None -> true | Some n -> n >= cfg.concurrency
  in
  (* The arrival source. [None]: the closed loop, where a slot issues its
     next request [delay ()] after the last one ended. [Some q]: the open
     loop, where [q.(id)] holds tenant [id]'s sorted arrival times and
     [arr_next.(id)] indexes the next one due. *)
  let schedule =
    Option.map
      (fun arr ->
        let counts = Array.make cfg.concurrency 0 in
        Array.iter
          (fun a ->
            let t = a.Workloads.tenant in
            if t < 0 || t >= cfg.concurrency then
              invalid_arg "Sim: arrival tenant out of range";
            counts.(t) <- counts.(t) + 1)
          arr;
        let per = Array.map (fun n -> Float.Array.make n 0.0) counts in
        (* Each tenant's times, latest arrival first, then stably sorted:
           equal times keep that order. *)
        for i = Array.length arr - 1 downto 0 do
          let a = arr.(i) in
          let t = a.Workloads.tenant in
          let q = per.(t) in
          counts.(t) <- counts.(t) - 1;
          Float.Array.set q (Float.Array.length q - 1 - counts.(t)) a.Workloads.at_ns
        done;
        Array.iter (Float.Array.stable_sort Float.compare) per;
        per)
      cfg.arrivals
  in
  let arr_next = Array.make cfg.concurrency 0 in
  (* Per-slot times, unboxed: [ready] holds when each slot is next due,
     [arrived] when its current logical request arrived, and [started]
     when its current activation started. *)
  let ready = Ready.create ~slots:cfg.concurrency ~procs:nprocs in
  let arrived = Float.Array.make cfg.concurrency 0.0 in
  let started = Float.Array.make cfg.concurrency 0.0 in
  (* Move a slot on to its tenant's next logical request. In the open loop
     that is the next scheduled arrival, possibly already past: it has
     then been queueing and is ready at once, its e2e latency including
     the wait. A spent schedule parks the slot at infinity. *)
  let rearm r delay =
    let at =
      match schedule with
      | None -> tm.now +. delay ()
      | Some q ->
          let i = arr_next.(r.id) in
          if i >= Float.Array.length q.(r.id) then infinity
          else begin
            arr_next.(r.id) <- i + 1;
            Float.Array.get q.(r.id) i
          end
    in
    Ready.set_due ready r.id at ~now:tm.now;
    Float.Array.set arrived r.id at
  in
  let requests =
    Array.init cfg.concurrency (fun id ->
        let r =
          {
            id;
            proc = id mod nprocs;
            inst = None;
            had_inst = prewarm;
            parked = false;
            bk_admitted = false;
            act = None;
            seq = 0;
          }
        in
        rearm r io_delay;
        if prewarm then r.inst <- Some (Runtime.instantiate engines.(r.proc));
        r)
  in
  (* Lifecycle cost model: instantiation / recycle work in OS pages, priced
     at [page_zero_ns] each (0.0 = free, the historical behavior). The CoW
     runtime pays the dirty pages its recycles actually dropped plus one
     privatized vmctx page per instantiate; [legacy_lifecycle] re-prices
     every instantiate as the pre-refactor runtime's O(min_pages) work — a
     whole-heap madvise plus a full data-segment rewrite. *)
  let heap_os_pages =
    match m.Sfi_wasm.Ast.memory with
    | Some mem ->
        mem.Sfi_wasm.Ast.min_pages * (Sfi_wasm.Ast.page_size / Sfi_vmem.Space.page_size)
    | None -> 0
  in
  let lifecycle_pages proc =
    let mt = Runtime.metrics engines.(proc) in
    let instantiates =
      mt.Runtime.m_instantiations_cold + mt.Runtime.m_instantiations_warm
    in
    if cfg.legacy_lifecycle then instantiates * 2 * heap_os_pages
    else mt.Runtime.m_pages_zeroed_on_recycle + instantiates
  in
  (* Startup instantiation is warm-up, not serving time: snapshot after the
     request array is built so only churn-driven lifecycle work is billed. *)
  let lifecycle_prev = Array.init nprocs lifecycle_pages in
  let cost = Machine.cost_model (Runtime.machine engines.(0)) in
  let epoch_fuel = Cost.cycles_of_ns cost cfg.epoch_ns in
  (* The watchdog deadline bounds every request, not only fault-injected
     runs: a runaway guest must be stopped even when the fault model is
     off (e.g. a chaos run or a deliberately misbehaving tenant). *)
  let deadline_fuel = Some (f.deadline_epochs * epoch_fuel) in
  (* Request spans run on the simulated clock, one trace track per request
     slot (= tenant), so a Perfetto load shows each tenant's activations as
     nested bars over sim time. *)
  Trace.set_clock trace (fun () -> int_of_float tm.now);
  let t_completed = Array.make cfg.concurrency 0 in
  let t_failed = Array.make cfg.concurrency 0 in
  let t_shed = Array.make cfg.concurrency 0 in
  let t_breaker_opens = Array.make cfg.concurrency 0 in
  let t_lat = Array.init cfg.concurrency (fun _ -> Hist.create ()) in
  let t_e2e = Array.init cfg.concurrency (fun _ -> Hist.create ()) in
  let t_sb = Array.make cfg.concurrency 0 in
  let t_instr = Array.make cfg.concurrency 0 in
  let completed = ref 0 in
  let failed = ref 0 in
  let watchdog_kills = ref 0 in
  let collateral = ref 0 in
  let recycles = ref 0 in
  let shed_sojourn = ref 0 in
  let shed_rate_limited = ref 0 in
  let shed_queue_full = ref 0 in
  let shed_priority = ref 0 in
  let deadline_misses = ref 0 in
  let breaker_opens = ref 0 in
  let breaker_fast_fails = ref 0 in
  let chaos_applied = ref 0 in
  let chaos_kills = ref 0 in
  let inst_fail_budget = ref 0 in
  (* The low 32 bits of every result, summed: an int holds the sum exactly
     up to 2^30 completions, so it equals the int64 sum. *)
  let checksum = ref 0 in
  let context_switches = ref 0 in
  let current_proc = ref 0 in
  (* Hoisted out of the degradation section: the flight recorder's
     counter snapshot wants the current ladder level too. *)
  let ladder_level = ref 0 in
  let engine_cycles = Array.make nprocs 0 in
  (* Advance the global clock by the cycles an engine just spent. *)
  let charge proc =
    let c = Machine.cycles (Runtime.machine engines.(proc)) in
    let delta = Cost.ns_of_cycles cost (c - engine_cycles.(proc)) in
    tm.now <- tm.now +. delta;
    tm.busy <- tm.busy +. delta;
    engine_cycles.(proc) <- c;
    if cfg.page_zero_ns > 0.0 then begin
      let w = lifecycle_pages proc in
      let dw = w - lifecycle_prev.(proc) in
      if dw > 0 then begin
        let ns = float_of_int dw *. cfg.page_zero_ns in
        tm.now <- tm.now +. ns;
        tm.busy <- tm.busy +. ns
      end;
      lifecycle_prev.(proc) <- w
    end
  in
  let breakers_open () =
    match breakers with
    | None -> 0
    | Some arr ->
        Array.fold_left
          (fun acc b -> if Breaker.state b <> Breaker.Closed then acc + 1 else acc)
          0 arr
  in
  (* --- flight recorder: post-mortem freezes --- *)
  let flight_counters () =
    let fold f = Array.fold_left (fun acc e -> acc + f e) 0 engines in
    let mach f = fold (fun e -> f (Runtime.machine e)) in
    [
      ("clock_ns", tm.now);
      ("completed", float_of_int !completed);
      ("failed", float_of_int !failed);
      ("watchdog_kills", float_of_int !watchdog_kills);
      ("collateral_aborts", float_of_int !collateral);
      ("recycles", float_of_int !recycles);
      ("shed_sojourn", float_of_int !shed_sojourn);
      ("shed_rate_limited", float_of_int !shed_rate_limited);
      ("shed_queue_full", float_of_int !shed_queue_full);
      ("shed_priority", float_of_int !shed_priority);
      ("breaker_opens", float_of_int !breaker_opens);
      ("breaker_fast_fails", float_of_int !breaker_fast_fails);
      ("breakers_open", float_of_int (breakers_open ()));
      ("admission_waiting", float_of_int (fold Runtime.waiting));
      ("ladder_level", float_of_int !ladder_level);
      ("chaos_applied", float_of_int !chaos_applied);
      ("machine_cycles", float_of_int (mach Machine.cycles));
      ( "machine_instructions",
        float_of_int (mach Machine.instructions) );
      ("dtlb_misses", float_of_int (mach Machine.dtlb_misses));
      ("superblocks_retired", float_of_int (mach Machine.superblock_retired));
      ("transitions", float_of_int (fold Runtime.transitions));
    ]
  in
  let freeze_flight reason =
    match cfg.flight with
    | None -> ()
    | Some fr ->
        Flight.freeze fr ~reason ~at_ns:(int_of_float tm.now)
          ~counters:(flight_counters ())
  in
  (* --- SLO burn-rate tracking --- *)
  let slo_burn_starts = ref 0 in
  let slo_burn_stops = ref 0 in
  let burning = ref 0 in
  let slos =
    match ov.slo with
    | None -> None
    | Some sc -> Some (sc, Array.init cfg.concurrency (fun _ -> Slo.create sc))
  in
  (* Edge-trigger a tenant's alerts: count transitions, track how many
     tenants are burning their fast window (the ladder's SLO-aware
     trigger), and emit the slo.burn_start/stop markers. *)
  let slo_transitions id s =
    List.iter
      (fun tr ->
        let burn_milli = int_of_float (tr.Slo.tr_burn *. 1000.0) in
        let window = match tr.Slo.tr_window with Slo.Fast -> 0 | Slo.Slow -> 1 in
        if tr.Slo.tr_started then begin
          incr slo_burn_starts;
          if tr.Slo.tr_window = Slo.Fast then incr burning;
          Trace.slo_burn_start trace ~tenant:id ~burn_milli ~window
        end
        else begin
          incr slo_burn_stops;
          if tr.Slo.tr_window = Slo.Fast then decr burning;
          Trace.slo_burn_stop trace ~tenant:id ~burn_milli ~window
        end)
      (Slo.evaluate s ~now:tm.now)
  in
  let slo_record id ~good =
    match slos with
    | None -> ()
    | Some (_, arr) ->
        let s = arr.(id) in
        Slo.record s ~now:tm.now ~good;
        slo_transitions id s
  in
  let slo_good lat =
    match slos with Some (sc, _) -> lat <= sc.Slo.latency_ns | None -> true
  in
  (* Which handler serves this request: deliberately misbehaving tenants
     (overload policy) crash-loop or spin on every request; otherwise the
     per-request fault model draws one with the configured probabilities. *)
  let draw_entry id =
    if List.mem id ov.crash_tenants then "misbehave_trap"
    else if List.mem id ov.runaway_tenants then "misbehave_spin"
    else if not has_faults then "handle"
    else begin
      let x = Prng.float rng 1.0 in
      if x < f.trap_rate then "misbehave_trap"
      else if x < f.trap_rate +. f.runaway_rate then "misbehave_spin"
      else "handle"
    end
  in
  (* --- circuit breakers: transition tracking + trace emission --- *)
  let note_breaker_transition id b prev =
    let st = Breaker.state b in
    if st <> prev then
      match st with
      | Breaker.Open ->
          incr breaker_opens;
          t_breaker_opens.(id) <- t_breaker_opens.(id) + 1;
          Trace.breaker_open trace ~tenant:id
            ~backoff:(int_of_float (Breaker.retry_at b -. tm.now));
          freeze_flight "breaker.open"
      | Breaker.Half_open -> Trace.breaker_half_open trace ~tenant:id
      | Breaker.Closed -> Trace.breaker_close trace ~tenant:id
  in
  (* Feed tenant [id]'s breaker a failure, or a completion that took
     [lat]. *)
  let breaker_failure id =
    match breakers with
    | None -> ()
    | Some arr ->
        let b = arr.(id) in
        let prev = Breaker.state b in
        Breaker.on_failure b ~now:tm.now;
        note_breaker_transition id b prev
  in
  let breaker_slow id lat =
    match breakers with
    | None -> ()
    | Some arr ->
        let b = arr.(id) in
        let prev = Breaker.state b in
        Breaker.on_slow b ~now:tm.now ~elapsed_ns:lat;
        note_breaker_transition id b prev
  in
  (* May tenant [id]'s next request proceed? An open breaker fast-fails it
     without touching the pool; the refusal parks the request until the
     breaker's next probe time. Fast-fails are not serving failures — the
     request never entered service — so they are counted separately. The
     breaker is consulted once per logical request ([bk_admitted]): a
     request it admitted that then waits on admission or a transient
     instantiate failure is not re-asked — in particular a half-open
     probe delayed that way must not fast-fail its own tenant forever. *)
  let breaker_allow r =
    match breakers with
    | None -> true
    | Some arr ->
        let b = arr.(r.id) in
        let prev = Breaker.state b in
        let ok = Breaker.allow b ~now:tm.now in
        note_breaker_transition r.id b prev;
        if ok then r.bk_admitted <- true
        else begin
          incr breaker_fast_fails;
          Ready.set_due ready r.id
            (match Breaker.state b with
            | Breaker.Open -> Float.max (Breaker.retry_at b) (tm.now +. cfg.epoch_ns)
            | _ -> tm.now +. cfg.epoch_ns)
            ~now:tm.now
        end;
        ok
  in
  (* --- graceful-degradation ladder ([ladder_level] hoisted above) --- *)
  let degrade_steps = ref 0 in
  let max_degrade_level = ref 0 in
  let hedged = ref ov.hedged_retries in
  let window_sheds = ref 0 in
  let over_windows = ref 0 in
  let calm_windows = ref 0 in
  let apply_level lvl =
    ladder_level := lvl;
    max_degrade_level := max !max_degrade_level lvl;
    incr degrade_steps;
    (* L1: tighten admission and keep recycle headroom. L2: + stop hedging
       failed requests. L3 additionally sheds low-priority arrivals (in
       [run_request]). Stepping down unwinds in the same order. *)
    let pressure = if lvl >= 1 then 0.5 else 1.0 in
    Array.iter
      (fun e ->
        Runtime.set_admission_pressure e pressure;
        let slots = Runtime.num_slots e in
        let reserve = if lvl >= 1 then min (slots - 1) (max 1 (slots / 8)) else 0 in
        Runtime.set_slot_reserve e reserve)
      engines;
    hedged := ov.hedged_retries && lvl < 2;
    Trace.degrade_step trace ~level:lvl
  in
  let ladder_tick () =
    if ov.degradation && tm.now >= tm.window_end then begin
      (* Re-evaluate burn-rate alerts at every window boundary so alerts
         also clear while a tenant is idle (its windows slide empty). *)
      (match slos with
      | Some (_, arr) -> Array.iteri slo_transitions arr
      | None -> ());
      (* SLO-aware trigger: shedding starts when any tenant is burning
         its fast error-budget window, not only on queue sojourn. *)
      let overloaded = !window_sheds > 0 || !burning > 0 in
      window_sheds := 0;
      while tm.window_end <= tm.now do
        tm.window_end <- tm.window_end +. window_len
      done;
      if overloaded then begin
        incr over_windows;
        calm_windows := 0
      end
      else begin
        incr calm_windows;
        over_windows := 0
      end;
      if !over_windows >= 2 && !ladder_level < 3 then begin
        over_windows := 0;
        apply_level (!ladder_level + 1)
      end
      else if !calm_windows >= 2 && !ladder_level > 0 then begin
        calm_windows := 0;
        apply_level (!ladder_level - 1)
      end
    end
  in
  (* --- retirement: the ways a request ends without a result --- *)
  let kill_live r =
    match r.inst with Some i when Runtime.live i -> Runtime.kill i | _ -> ()
  in
  (* An abort: the activation ends without a result. *)
  let abort r =
    t_failed.(r.id) <- t_failed.(r.id) + 1;
    slo_record r.id ~good:false;
    Trace.request_end trace ~tenant:r.id ~ok:false;
    r.act <- None
  in
  (* A failure: an abort that also feeds the tenant's breaker and ends the
     logical request, so the slot's next request runs on a fresh seed. The
     caller re-arms the slot. *)
  let fail r =
    incr failed;
    abort r;
    breaker_failure r.id;
    r.seq <- r.seq + 1;
    r.parked <- false;
    r.bk_admitted <- false
  in
  (* A shed: the client behind the refused request gives up and issues a
     fresh one later. An admission shed ([Some reason]) also re-opens a
     half-open breaker whose probe it refused; the ladder's priority shed
     ([None]) leaves the probe outstanding. *)
  let shed r reason =
    (match reason with
    | None -> incr shed_priority
    | Some Runtime.Shed_sojourn ->
        incr shed_sojourn;
        incr window_sheds
    | Some Runtime.Shed_rate_limited -> incr shed_rate_limited
    | Some Runtime.Shed_queue_full ->
        incr shed_queue_full;
        incr window_sheds);
    t_shed.(r.id) <- t_shed.(r.id) + 1;
    slo_record r.id ~good:false;
    (match breakers with
    | Some arr when reason <> None && Breaker.state arr.(r.id) = Breaker.Half_open ->
        breaker_failure r.id
    | _ -> ());
    r.parked <- false;
    r.bk_admitted <- false;
    rearm r io_delay
  in
  (* Crash recovery / slot acquisition: get a slot through admission (the
     CoDel path when armed, the bounded FIFO retry queue otherwise).
     Returns false while the request must wait or was shed. *)
  let ensure_instance r =
    match r.inst with
    | Some i when Runtime.live i -> true
    | _ ->
        if !inst_fail_budget > 0 then begin
          (* Chaos: transient instantiate failure — behaves like a full
             pool; the request retries next epoch. *)
          decr inst_fail_budget;
          Ready.set_due ready r.id (tm.now +. cfg.epoch_ns) ~now:tm.now;
          false
        end
        else begin
          match Runtime.admit engines.(r.proc) ~ticket:r.id ~tenant:r.id ~now:tm.now with
          | `Ready inst ->
              if r.had_inst then incr recycles;
              r.had_inst <- true;
              r.parked <- false;
              r.inst <- Some inst;
              true
          | `Wait ->
              if ov.admission <> None then r.parked <- true;
              Ready.set_due ready r.id (tm.now +. cfg.epoch_ns) ~now:tm.now;
              false
          | `Shed reason ->
              if ov.admission = None then begin
                (* Legacy FIFO reject: keep the historical epoch retry (and
                   its PRNG stream) byte-for-byte. *)
                Ready.set_due ready r.id (tm.now +. cfg.epoch_ns) ~now:tm.now;
                false
              end
              else begin
                shed r (Some reason);
                false
              end
        end
  in
  (* Blast radius of a crash. Under multiprocess scaling a trap is a process
     death: every co-resident instance dies and its in-flight request is
     aborted. Under ColorGuard only the faulting instance is torn down. *)
  let crash_process proc ~except =
    Array.iter
      (fun r2 ->
        if r2.proc = proc && r2.id <> except then begin
          if r2.act <> None then begin
            incr collateral;
            abort r2
          end;
          kill_live r2;
          Ready.set_due ready r2.id (tm.now +. f.respawn_ns) ~now:tm.now
        end)
      requests;
    tm.now <- tm.now +. f.respawn_ns;
    tm.busy <- tm.busy +. f.respawn_ns
  in
  (* A step that trapped or hit the watchdog. Hedged retries (until the
     ladder downgrades them at L2) resubmit the failed request next epoch
     instead of after a full IO round-trip. *)
  let retry_delay () = if !hedged then cfg.epoch_ns else io_delay () in
  let fail_request r ~is_crash =
    fail r;
    freeze_flight "fault";
    (match cfg.mode with
    | Multiprocess _ when is_crash -> crash_process r.proc ~except:r.id
    | _ -> ());
    rearm r retry_delay
  in
  let run_request r =
    if
      !ladder_level >= 3 && r.act = None && (not r.parked) && ov.low_priority r.id
    then begin
      (* L3: shed low-priority arrivals outright. Reason code 3 in the
         trace = priority shed (the runtime codes cover 0-2). *)
      shed r None;
      Trace.admission_shed trace ~tenant:r.id ~sojourn:0 ~reason:3
    end
    else if r.act <> None || r.parked || r.bk_admitted || breaker_allow r then begin
      if ensure_instance r then begin
        let inst = match r.inst with Some i -> i | None -> assert false in
        let arrival = Float.Array.get arrived r.id in
        let completed_now = ref false in
        let act =
          match r.act with
          | Some a -> a
          | None ->
              let seed = Int64.of_int (1 + r.id + (r.seq * 8191)) in
              let a = Runtime.start_call ?deadline_fuel inst (draw_entry r.id) [ seed ] in
              r.act <- Some a;
              Float.Array.set started r.id tm.now;
              Trace.request_begin trace ~tenant:r.id;
              a
        in
        (* Tenant-attributed superblock occupancy: the engine's counters are
           monotonic across requests, so per-slice deltas sum cleanly even
           when the instance is killed or recycled mid-request. *)
        let mach = Runtime.machine engines.(r.proc) in
        let sb0 = Machine.superblock_retired mach in
        let in0 = Machine.instructions mach in
        (match Runtime.step act ~fuel:epoch_fuel with
        | `Done v ->
            incr completed;
            checksum := !checksum + Int64.to_int (Int64.logand v 0xFFFFFFFFL);
            completed_now := true;
            r.act <- None;
            r.seq <- r.seq + 1;
            (* High-churn mode: every request runs on a fresh instance, the
               §6.4.3 FaaS pattern. Release recycles the slot (dirty pages
               revert to the image); the next request re-instantiates. *)
            if cfg.churn then Runtime.release inst;
            r.bk_admitted <- false;
            rearm r io_delay
        | `Trapped _ ->
            (* The sandbox crashed; Runtime.step already killed the instance
               and recycled its slot. The request failed — count it, never
               abort the simulation. *)
            fail_request r ~is_crash:true
        | `Fault Runtime.Fuel_exhausted ->
            (* Watchdog kill: runaway loop exceeded its deadline. *)
            incr watchdog_kills;
            fail_request r ~is_crash:false
        | `Fault _ ->
            (* Instance died under us (e.g. collateral of a neighbour's
               crash); retry on a fresh instance. *)
            fail_request r ~is_crash:false
        | `More -> () (* preempted; stays ready *));
        t_sb.(r.id) <- t_sb.(r.id) + (Machine.superblock_retired mach - sb0);
        t_instr.(r.id) <-
          t_instr.(r.id) + (Machine.instructions mach - in0);
        charge r.proc;
        (* Latency is measured after [charge] so it includes the execution
           time the engine just billed; the failure paths above keep their
           pre-charge due times (retry, respawn) unchanged. *)
        if !completed_now then begin
          t_completed.(r.id) <- t_completed.(r.id) + 1;
          let lat = tm.now -. Float.Array.get started r.id in
          let e2e = tm.now -. arrival in
          (match ov.request_deadline_ns with
          | Some d when e2e > d -> incr deadline_misses
          | _ -> ());
          breaker_slow r.id lat;
          Trace.request_end trace ~tenant:r.id ~ok:true;
          (* The exemplar points at the request-end event just stored, so
             a percentile spike links to the exact span in the export. *)
          Hist.record_exemplar t_lat.(r.id) lat
            ~index:(max 0 (Trace.length trace - 1));
          Hist.record t_e2e.(r.id) e2e;
          slo_record r.id ~good:(slo_good lat)
        end
      end
    end
  in
  (* --- chaos: seeded perturbations applied to the live run --- *)
  let chaos_pending =
    ref (List.sort (fun a b -> compare a.at_ns b.at_ns) cfg.chaos)
  in
  let next_chaos_time () =
    match !chaos_pending with ev :: _ -> ev.at_ns | [] -> infinity
  in
  let chaos_index = ref 0 in
  let chaos_think () = Prng.exponential chaos_rng ~mean:cfg.io_mean_ns in
  let apply_chaos ev =
    let victim = ref (-1) in
    (match ev.action with
    | Chaos_kill -> (
        (* Kill a random in-flight instance: the victim's request fails
           (attributed to the victim alone — that's the blast-radius
           invariant the harness checks) and the slot recycles. *)
        let candidates =
          Array.to_list requests
          |> List.filter (fun r ->
                 r.act <> None
                 && match r.inst with Some i -> Runtime.live i | None -> false)
        in
        match candidates with
        | [] -> ()
        | l ->
            let r = List.nth l (Prng.int chaos_rng (List.length l)) in
            victim := r.id;
            incr chaos_kills;
            fail r;
            kill_live r;
            rearm r chaos_think)
    | Chaos_latency { factor; window_ns } ->
        tm.latency_factor <- factor;
        tm.latency_until <- tm.now +. window_ns
    | Chaos_instantiate_fail n -> inst_fail_budget := !inst_fail_budget + n);
    incr chaos_applied;
    freeze_flight
      (match ev.action with
      | Chaos_kill -> "chaos.kill"
      | Chaos_latency _ -> "chaos.latency"
      | Chaos_instantiate_fail _ -> "chaos.instantiate_fail");
    (match cfg.on_perturbation with
    | Some fn ->
        fn
          {
            cr_index = !chaos_index;
            cr_at_ns = ev.at_ns;
            cr_action = ev.action;
            cr_victim = !victim;
            cr_failed = Array.copy t_failed;
          }
    | None -> ());
    incr chaos_index
  in
  let chaos_tick () =
    if tm.latency_until > 0.0 && tm.now >= tm.latency_until then begin
      tm.latency_factor <- 1.0;
      tm.latency_until <- 0.0
    end;
    let draining = ref true in
    while !draining do
      match !chaos_pending with
      | ev :: rest when ev.at_ns <= tm.now ->
          chaos_pending := rest;
          apply_chaos ev
      | _ -> draining := false
    done
  in
  (* Scheduler. The legacy scan picks the lowest-index ready request, so a
     started request runs to completion before anything behind it starts:
     slots are barely contended and overload shows up as silent starvation
     of high-index tenants. [fair_scheduling] switches to a round-robin
     cursor (processor sharing): every ready request gets an epoch in
     turn, in-flight requests hold their slots across preemption, and
     excess demand queues at admission — the regime the overload stack is
     built for. Off by default to keep earlier figures reproducible. *)
  let rr_cursor = ref 0 in
  let n_requests = Array.length requests in
  (* The first ready slot of process [proc] ([-1]: any) at or after the
     cursor, cyclically; [-1] if none. The legacy scan is the same scan
     with the cursor parked at 0. *)
  let ready_in proc =
    Ready.advance ready ~now:tm.now;
    let i = Ready.pick ready ~cursor:!rr_cursor ~proc in
    if i >= 0 && cfg.fair_scheduling then rr_cursor := (i + 1) mod n_requests;
    i
  in
  let switch_to proc =
    incr context_switches;
    tm.now <- tm.now +. os_switch_ns;
    tm.busy <- tm.busy +. os_switch_ns;
    (* The incoming process finds the shared TLB polluted by whoever ran in
       between: model as a flush of its TLB state. *)
    Machine.flush_tlb (Runtime.machine engines.(proc));
    current_proc := proc;
    tm.slice_start <- tm.now
  in
  (* Nothing is ready: jump to the next due slot or chaos event. Only
     called with no slot ready, so the ready set's earliest future due
     time is the earliest of all. *)
  let idle_jump () =
    let fmin (a : float) b = if a <= b then a else b in
    let next = fmin (fmin (Ready.next_ready_time ready) (next_chaos_time ())) cfg.duration_ns in
    if not (tm.now >= next) then tm.now <- next
  in
  (* The next process after the current one with a ready slot, or -1. *)
  let other_with_work () =
    let found = ref (-1) in
    for k = 1 to nprocs - 1 do
      let p = (!current_proc + k) mod nprocs in
      if !found < 0 && ready_in p >= 0 then found := p
    done;
    !found
  in
  while tm.now < cfg.duration_ns do
    chaos_tick ();
    ladder_tick ();
    match cfg.mode with
    | Colorguard ->
        let i = ready_in (-1) in
        if i >= 0 then run_request requests.(i) else idle_jump ()
    | Multiprocess _ ->
        (* A timeslice expires: move on if someone else has work. *)
        if tm.now -. tm.slice_start >= cfg.epoch_ns then begin
          let p = other_with_work () in
          if p >= 0 then switch_to p else tm.slice_start <- tm.now
        end;
        let i = ready_in !current_proc in
        if i >= 0 then run_request requests.(i)
        else begin
          let p = other_with_work () in
          if p >= 0 then switch_to p else idle_jump ()
        end
  done;
  (* Balance the trace: activations still in flight when the simulated
     duration expires get their span closed (not counted as failures). *)
  Array.iter
    (fun r -> if r.act <> None then Trace.request_end trace ~tenant:r.id ~ok:false)
    requests;
  (* Final burn-rate sweep so [slo_burning_at_end] reflects the stream's
     last state, then stamp the ring's fingerprint into the exemplars. *)
  (match slos with
  | Some (_, arr) -> Array.iteri slo_transitions arr
  | None -> ());
  if Trace.enabled trace then begin
    let fp = Trace.fingerprint trace in
    Array.iter (fun h -> Hist.seal_exemplars h fp) t_lat
  end;
  let tenants =
    Array.init cfg.concurrency (fun id ->
        let lat = t_lat.(id) in
        let pct h p = if Hist.count h = 0 then 0.0 else Hist.percentile h p in
        let e2e = t_e2e.(id) in
        {
          t_id = id;
          t_completed = t_completed.(id);
          t_failed = t_failed.(id);
          t_shed = t_shed.(id);
          t_breaker_opens = t_breaker_opens.(id);
          t_breaker_state =
            (match breakers with
            | None -> "-"
            | Some arr -> Breaker.state_name (Breaker.state arr.(id)));
          t_p50_ns = pct lat 50.0;
          t_p95_ns = pct lat 95.0;
          t_p99_ns = pct lat 99.0;
          t_p99_e2e_ns = pct e2e 99.0;
          t_sb_share =
            (if t_instr.(id) = 0 then 0.0
             else float_of_int t_sb.(id) /. float_of_int t_instr.(id));
          t_burn =
            (match slos with
            | Some (_, arr) -> Slo.burn arr.(id) ~now:tm.now Slo.Fast
            | None -> 0.0);
          t_lat_hist = lat;
          t_e2e_hist = e2e;
        })
  in
  let rt = Runtime.merged_metrics (Array.to_list (Array.map Runtime.metrics engines)) in
  with_rates
    {
      completed = !completed;
      failed = !failed;
      watchdog_kills = !watchdog_kills;
      collateral_aborts = !collateral;
      recycles = !recycles;
      pages_zeroed = rt.Runtime.m_pages_zeroed_on_recycle;
      admitted = rt.Runtime.m_admitted;
      shed_sojourn = !shed_sojourn;
      shed_rate_limited = !shed_rate_limited;
      shed_queue_full = !shed_queue_full;
      shed_priority = !shed_priority;
      deadline_misses = !deadline_misses;
      breaker_opens = !breaker_opens;
      breaker_fast_fails = !breaker_fast_fails;
      breakers_open_at_end = breakers_open ();
      degrade_steps = !degrade_steps;
      max_degrade_level = !max_degrade_level;
      chaos_applied = !chaos_applied;
      chaos_kills = !chaos_kills;
      slo_burn_starts = !slo_burn_starts;
      slo_burn_stops = !slo_burn_stops;
      slo_burning_at_end = !burning;
      (* The four rates are [with_rates]'s. *)
      throughput_rps = 0.0;
      goodput_rps = 0.0;
      availability = 1.0;
      capacity_rps = 0.0;
      context_switches = !context_switches;
      user_transitions = rt.Runtime.m_transitions;
      dtlb_misses =
        Array.fold_left (fun acc e -> acc + Machine.dtlb_misses (Runtime.machine e)) 0 engines;
      checksum = Int64.of_int !checksum;
      simulated_ns = tm.now;
      cpu_busy_ns = tm.busy;
      tenants;
    }

let throughput_gain ~workload ~processes cfg =
  (* Capacity per core-second: below CPU saturation both strategies finish
     the same IO-bound load, but multiprocess scaling burns core time on
     process switches and cold TLBs — time that at scale would have served
     additional requests. This is the per-core efficiency Figure 6 reports. *)
  let cg = run { cfg with mode = Colorguard; workload } in
  let mp = run { cfg with mode = Multiprocess processes; workload } in
  (cg.capacity_rps -. mp.capacity_rps) /. mp.capacity_rps *. 100.0

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
