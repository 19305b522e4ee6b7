(* Sharded serving: partition the tenant population across N OCaml
   domains, each running its own engine (pool allocator, pkru/TLB state,
   admission controller, trace sink) over its own simulated core, and
   merge the per-shard outcomes deterministically.

   Determinism is the design constraint everything else bends around:
   shard placement and work stealing are resolved at dispatch-plan time
   in simulated time (not by racing domains), per-shard PRNG streams are
   split from the root seed, per-shard DLS metrics are harvested inside
   each worker domain before it dies, and per-shard trace rings are
   merged by simulated time under per-shard track namespacing. A K-shard
   run is a pure function of (config, K); a 1-shard run is bit-identical
   to the unsharded [Sim.run]. *)

module Runtime = Sfi_runtime.Runtime
module Prng = Sfi_util.Prng
module Hist = Sfi_util.Hist
module Trace = Sfi_trace.Trace

type config = {
  base : Sim.config;
  shards : int;
  steal : bool;
  trace_capacity : int;
}

let default_config ?(steal = true) ?(trace_capacity = 65536) ~shards base =
  { base; shards; steal; trace_capacity }

(* Hash-based home placement: avalanche the tenant id so consecutive
   tenants spread instead of striping (tenant ids are dense). *)
let home_shard ~shards tenant =
  if shards <= 0 then invalid_arg "Shard.home_shard: shards must be > 0";
  let h = Prng.split_seed ~seed:(Int64.of_int tenant) 0 in
  Int64.to_int (Int64.logand h 0x3FFFFFFFFFFFFFFFL) mod shards

(* Work-stealing dispatch plan. Each shard keeps a deque of its tenants
   ordered hot (head) to cold (tail) by offered load. The plan walks the
   virtual dispatch: while the least-loaded shard would sit idle next to
   a backlogged neighbor, it steals the tenant at the *tail* of the most
   loaded shard's deque — the coldest one, so hot tenants stay
   shard-local — provided the move strictly reduces the imbalance.
   Resolving the steals here, in simulated time, is what keeps K-shard
   runs deterministic: domains never race for work at execution time. *)
let plan ~shards ~steal weights =
  let n = Array.length weights in
  let assign = Array.init n (fun t -> home_shard ~shards t) in
  let load = Array.make shards 0.0 in
  Array.iteri (fun t s -> load.(s) <- load.(s) +. weights.(t)) assign;
  let steals = ref 0 in
  if steal && shards > 1 && n > 0 then begin
    (* Deques as cold-first lists: the list head is the deque tail. *)
    let dq =
      Array.init shards (fun s ->
          List.init n Fun.id
          |> List.filter (fun t -> assign.(t) = s)
          |> List.sort (fun a b ->
                 let c = compare weights.(a) weights.(b) in
                 if c <> 0 then c else compare b a))
    in
    let budget = ref (4 * n) in
    let continue = ref true in
    while !continue && !budget > 0 do
      decr budget;
      let mn = ref 0 and mx = ref 0 in
      for s = 1 to shards - 1 do
        if load.(s) < load.(!mn) then mn := s;
        if load.(s) > load.(!mx) then mx := s
      done;
      let d = load.(!mx) -. load.(!mn) in
      match dq.(!mx) with
      | tail :: rest when !mx <> !mn && weights.(tail) < d ->
          dq.(!mx) <- rest;
          dq.(!mn) <- tail :: dq.(!mn);
          assign.(tail) <- !mn;
          load.(!mx) <- load.(!mx) -. weights.(tail);
          load.(!mn) <- load.(!mn) +. weights.(tail);
          incr steals
      | _ -> continue := false
    done
  end;
  (assign, !steals)

type shard_stat = {
  sh_id : int;
  sh_tenants : int;
  sh_stolen : int;
  sh_weight : float;
  sh_completed : int;
  sh_shed : int;
  sh_busy_ns : float;
  sh_metrics : Runtime.metrics;
}

type report = {
  r_result : Sim.result;
  r_shards : shard_stat array;
  r_steals : int;
  r_metrics : Runtime.metrics;
  r_trace : Trace.t option;
}

let run cfg =
  if cfg.shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
  let base = cfg.base in
  let n = base.Sim.concurrency in
  (* Refuse what the sim would before the weights index by tenant, so a
     bad arrival gets its reason. A run with no tenants and no arrivals
     serves nothing and is not refused. *)
  let no_work = n = 0 && (match base.Sim.arrivals with None -> true | Some a -> a = [||]) in
  if not no_work then
    Result.iter_error (fun reason -> invalid_arg ("Sim: " ^ reason)) (Sim.validate base);
  let shards = cfg.shards in
  (* Offered load per tenant: scheduled arrivals in open-loop mode, one
     closed-loop client each otherwise. *)
  let weights =
    match base.Sim.arrivals with
    | None -> Array.make n 1.0
    | Some arr ->
        let w = Array.make n 0.0 in
        Array.iter
          (fun a -> w.(a.Workloads.tenant) <- w.(a.Workloads.tenant) +. 1.0)
          arr;
        w
  in
  let assign, steals = plan ~shards ~steal:cfg.steal weights in
  (* Shard-local tenant numbering, ascending global id. *)
  let locals =
    Array.init shards (fun s ->
        List.init n Fun.id
        |> List.filter (fun g -> assign.(g) = s)
        |> Array.of_list)
  in
  let local_of = Array.make (max 1 n) (-1) in
  Array.iter
    (Array.iteri (fun l g -> local_of.(g) <- l))
    locals;
  let tracing = Trace.enabled base.Sim.trace in
  let rings =
    Array.init shards (fun _ ->
        if tracing then Trace.create_ring ~capacity:cfg.trace_capacity ()
        else Trace.null)
  in
  let shard_cfg s =
    let ls = locals.(s) in
    let ns = Array.length ls in
    let ov = base.Sim.overload in
    let sub_tenants l =
      List.filter_map
        (fun g -> if g >= 0 && g < n && assign.(g) = s then Some local_of.(g) else None)
        l
    in
    let overload =
      {
        ov with
        Sim.pool_slots =
          (match ov.Sim.pool_slots with
          | None -> None
          | Some slots ->
              (* Per-shard backpressure: each shard's admission controller
                 guards its proportional share of the global pool. *)
              Some (max 1 (if n = 0 then slots else slots * ns / n)));
        crash_tenants = sub_tenants ov.Sim.crash_tenants;
        runaway_tenants = sub_tenants ov.Sim.runaway_tenants;
        low_priority = (fun l -> l >= 0 && l < ns && ov.Sim.low_priority ls.(l));
      }
    in
    let arrivals =
      match base.Sim.arrivals with
      | None -> None
      | Some arr ->
          let mine a = assign.(a.Workloads.tenant) = s in
          let out =
            Array.make
              (Array.fold_left (fun n a -> if mine a then n + 1 else n) 0 arr)
              { Workloads.at_ns = 0.0; tenant = 0 }
          in
          let k = ref 0 in
          Array.iter
            (fun a ->
              if mine a then begin
                out.(!k) <- { a with Workloads.tenant = local_of.(a.Workloads.tenant) };
                incr k
              end)
            arr;
          Some out
    in
    (* Chaos events are dealt round-robin across shards so the schedule's
       total perturbation count is preserved. *)
    let chaos = List.filteri (fun i _ -> i mod shards = s) base.Sim.chaos in
    {
      base with
      Sim.concurrency = ns;
      (* The root seed is used unchanged when there is one shard (the
         bit-identity contract with the unsharded sim); K > 1 shards get
         avalanche-split child seeds, never xor'd or offset ones. *)
      seed =
        (if shards = 1 then base.Sim.seed
         else Prng.split_seed ~seed:base.Sim.seed s);
      trace = rings.(s);
      overload;
      arrivals;
      chaos;
    }
  in
  (* One domain per shard. The DLS-backed [Runtime.domain_metrics]
     counters die with the worker domain, so each worker snapshots them
     *before* returning — reading them after [Domain.join] would observe
     nothing (the per-domain-metrics-lifetime bug this layer exposed). A
     shard the hash left without tenants (possible when shards is close to
     the tenant count) serves nothing and produces no result. *)
  let worker s () =
    if Array.length locals.(s) = 0 then (None, Runtime.zero_metrics)
    else
      let r = Sim.run (shard_cfg s) in
      (Some r, Runtime.domain_metrics ())
  in
  let handles = Array.init shards (fun s -> Domain.spawn (worker s)) in
  let joined = Array.map Domain.join handles in
  let results = Array.map fst joined in
  let metrics = Runtime.merged_metrics (Array.to_list (Array.map snd joined)) in
  let merged_trace =
    if tracing then Some (Trace.merge_shards (Array.to_list rings)) else None
  in
  let tenants =
    Array.init n (fun g ->
        { (Option.get results.(assign.(g))).Sim.tenants.(local_of.(g)) with Sim.t_id = g })
  in
  let merged = Sim.merge ~tenants (List.filter_map Fun.id (Array.to_list results)) in
  let stolen_into = Array.make shards 0 in
  for g = 0 to n - 1 do
    if assign.(g) <> home_shard ~shards g then
      stolen_into.(assign.(g)) <- stolen_into.(assign.(g)) + 1
  done;
  let shard_stats =
    Array.init shards (fun s ->
        let completed, shed, busy_ns =
          match results.(s) with
          | Some r -> (r.Sim.completed, Sim.sheds r, r.Sim.cpu_busy_ns)
          | None -> (0, 0, 0.0)
        in
        {
          sh_id = s;
          sh_tenants = Array.length locals.(s);
          sh_stolen = stolen_into.(s);
          sh_weight =
            Array.fold_left
              (fun acc g -> acc +. weights.(g))
              0.0 locals.(s);
          sh_completed = completed;
          sh_shed = shed;
          sh_busy_ns = busy_ns;
          sh_metrics = snd joined.(s);
        })
  in
  {
    r_result = merged;
    r_shards = shard_stats;
    r_steals = steals;
    r_metrics = metrics;
    r_trace = merged_trace;
  }

(* ------------------------------------------------------------------ *)
(* Result digests and summaries                                        *)

let result_fingerprint (r : Sim.result) =
  let h = ref 0xCBF29CE484222325L in
  let mix64 v = h := Int64.mul (Int64.logxor !h v) 0x100000001B3L in
  let mixi v = mix64 (Int64.of_int v) in
  let mixf v = mix64 (Int64.bits_of_float v) in
  List.iter
    (function
      | _, _, Sim.Int get -> mixi (get r) | _, _, Sim.Float get -> mixf (get r))
    Sim.counters;
  mix64 r.Sim.checksum;
  mixf r.Sim.simulated_ns;
  mixf r.Sim.cpu_busy_ns;
  Array.iter
    (fun t ->
      mixi t.Sim.t_id;
      mixi t.Sim.t_completed;
      mixi t.Sim.t_failed;
      mixi t.Sim.t_shed;
      mixi t.Sim.t_breaker_opens;
      String.iter (fun c -> mixi (Char.code c)) t.Sim.t_breaker_state;
      mixf t.Sim.t_p50_ns;
      mixf t.Sim.t_p95_ns;
      mixf t.Sim.t_p99_ns;
      mixf t.Sim.t_p99_e2e_ns;
      mixf t.Sim.t_burn)
    r.Sim.tenants;
  !h

let metrics_fingerprint (m : Runtime.metrics) =
  let h = ref 0xCBF29CE484222325L in
  let mixi v = h := Int64.mul (Int64.logxor !h (Int64.of_int v)) 0x100000001B3L in
  List.iter (fun (_, _, get) -> mixi (get m)) Runtime.counters;
  !h

(* Global latency percentiles from the merged per-tenant histograms:
   log-bucketed, so the merge across tenants (and shards) is exact at
   bucket granularity — no completions-weighted interpolation over
   per-tenant percentile values anymore. *)
let merged_latency_hist (r : Sim.result) =
  let merged = Hist.create () in
  Array.iter (fun t -> Hist.merge merged t.Sim.t_lat_hist) r.Sim.tenants;
  merged

let latency_summary (r : Sim.result) =
  let h = merged_latency_hist r in
  if Hist.count h = 0 then (0.0, 0.0, 0.0)
  else (Hist.percentile h 50.0, Hist.percentile h 95.0, Hist.percentile h 99.0)
