(* The two serving workloads.

   faas_edge: open-loop, trace-shaped Micro-KV load (Zipf 0.6 tenants,
   one diurnal day, mean rate well below what two shards serve) on
   [Shard.run] with two shards, admission control, the fair scheduler and
   warm instances. It stresses the sim event loop, admission, sharding
   and warm transitions; each request is a few dozen simulated
   instructions, so dispatch is noise, and lifecycle work is one cold
   instantiation per tenant.

   faas_churn: the closed-loop section 6.4.3 sim — ColorGuard, 128
   requests in flight, the legacy scheduler, Micro-KV — where every
   request runs on a recycled instance with lifecycle work priced at
   section 7's 79 us per 64 KiB, and the program's trace ring armed as
   `sfi trace` / `sfi top` users run it. The only workload that exercises
   warm instantiate / copy-on-write recycle, the closed-loop arrival path
   and trace emission. *)

module Sim = Sfi_faas.Sim
module Shard = Sfi_faas.Shard
module Fw = Sfi_faas.Workloads
module Runtime = Sfi_runtime.Runtime
module Trace = Sfi_trace.Trace

let sheds (r : Sim.result) =
  r.Sim.shed_sojourn + r.Sim.shed_rate_limited + r.Sim.shed_queue_full + r.Sim.shed_priority

(* Requests the sim resolved one way or another. *)
let resolved (r : Sim.result) =
  r.Sim.completed + r.Sim.failed + r.Sim.collateral_aborts + sheds r + r.Sim.breaker_fast_fails

let p99_us r =
  let _, _, p99 = Shard.latency_summary r in
  p99 /. 1e3

(* --- faas_edge ----------------------------------------------------------- *)

let edge_tenants = 256
let edge_shards = 2

(* Arrivals stop at [edge_arrivals_ns]; the sim runs [edge_drain_ns]
   longer so every arrival is resolved before the end and the accounting
   identity has no in-flight or late term. *)
let edge_arrivals_ns = 15.0e6
let edge_drain_ns = 5.0e6
let edge_rps = 6_000_000.0

type edge = { arrivals : Fw.arrival array; seed : int64 }

let edge_setup spans meter seed =
  let arrivals =
    Calib.time meter @@ fun () ->
    Spans.with_span spans "faas.synthesize" (fun () ->
        Fw.synthesize ~seed ~tenants:edge_tenants ~duration_ns:edge_arrivals_ns ~rps:edge_rps
          ~shape:(Fw.Diurnal { trough = 0.25 })
          ~popularity:(Fw.Zipf { skew = 0.6 })
          ())
  in
  { arrivals; seed }

let edge_digest e =
  Array.fold_left
    (fun h (a : Fw.arrival) -> Pct.fnv_int (Pct.fnv_float h a.Fw.at_ns) a.Fw.tenant)
    Pct.fnv_offset e.arrivals

let edge_config e =
  let base =
    {
      (Sim.default_config ~workload:Fw.Micro_kv
         ~overload:
           {
             Sim.no_overload with
             Sim.admission = Some { Runtime.default_admission with Runtime.tenant_rate = 200_000.0 };
           }
         ~fair_scheduling:true ())
      with
      Sim.concurrency = edge_tenants;
      duration_ns = edge_arrivals_ns +. edge_drain_ns;
      seed = e.seed;
      arrivals = Some e.arrivals;
    }
  in
  Shard.default_config ~shards:edge_shards base

let busy_imbalance (shards : Shard.shard_stat array) =
  let busy = Array.map (fun s -> s.Shard.sh_busy_ns) shards in
  let mean = Array.fold_left ( +. ) 0.0 busy /. float_of_int (Array.length busy) in
  let hi = Array.fold_left Float.max neg_infinity busy in
  let lo = Array.fold_left Float.min infinity busy in
  Harness.ratio (hi -. lo) mean

let edge_pass spans meter e =
  let rep =
    Calib.time meter (fun () ->
        Spans.with_span spans "faas.shard_run" (fun () -> Shard.run (edge_config e)))
  in
  let r = rep.Shard.r_result and m = rep.Shard.r_metrics in
  let offered = Array.length e.arrivals in
  let reqs = float_of_int r.Sim.completed in
  {
    Harness.ops = reqs;
    attempted = offered;
    fingerprint =
      Pct.fnv_int64 (Shard.result_fingerprint r) (Shard.metrics_fingerprint m);
    counts =
      [
        ("requests", reqs);
        ("runtime.instantiations_warm_per_req", float_of_int m.Runtime.m_instantiations_warm /. reqs);
        ("runtime.pages_zeroed_per_req", float_of_int m.Runtime.m_pages_zeroed_on_recycle /. reqs);
        ("runtime.transitions_per_req", float_of_int m.Runtime.m_transitions /. reqs);
        ("runtime.shed_frac", float_of_int (sheds r) /. float_of_int offered);
        ("faas.cpu_busy_share", r.Sim.cpu_busy_ns /. (r.Sim.simulated_ns *. float_of_int edge_shards));
        ("faas.steals", float_of_int rep.Shard.r_steals);
        ("faas.shard_busy_imbalance", busy_imbalance rep.Shard.r_shards);
        ("sim.goodput_rps", r.Sim.goodput_rps);
        ("sim.p99_us", p99_us r);
      ];
    samples_us = [];
    check =
      (fun () ->
        let unresolved = offered - resolved r in
        if unresolved = 0 then []
        else
          List.init (abs unresolved) (fun _ ->
              Printf.sprintf
                "faas_edge: %d offered, %d resolved (completed %d, failed %d, collateral %d, \
                 shed %d, fast-failed %d); %d late or in flight after the drain"
                offered (resolved r) r.Sim.completed r.Sim.failed r.Sim.collateral_aborts
                (sheds r) r.Sim.breaker_fast_fails unresolved));
  }

let edge =
  Harness.Workload
    {
      Harness.name = "faas_edge";
      domains = edge_shards;
      ops_unit = "completed simulated requests";
      setup = edge_setup;
      digest = edge_digest;
      pass = edge_pass;
    }

(* --- faas_churn ---------------------------------------------------------- *)

let churn_concurrency = 128
let churn_duration_ns = 100.0e6

(* The paper's 79 us per 64 KiB instance, per 4 KiB OS page. *)
let page_zero_ns = 79_000.0 /. 16.0

(* The closed loop's only input is its seed: the sim draws IO delays from
   it. Set-up is a short warm-up run from the same seed, so the engines'
   lazy state and the heap are in place before the timed passes. *)
type churn = { seed : int64 }

let warmup_ns = 50.0e6

let churn_config c ~trace =
  {
    (Sim.default_config ~workload:Fw.Micro_kv ~churn:true ~page_zero_ns ()) with
    Sim.concurrency = churn_concurrency;
    duration_ns = churn_duration_ns;
    io_mean_ns = 200_000.0;
    epoch_ns = 50_000.0;
    seed = c.seed;
    trace;
  }

let churn_pass spans meter c =
  let ring = Trace.create_ring () in
  Runtime.reset_domain_metrics ();
  let r =
    Calib.time meter (fun () ->
        Spans.with_span spans "faas.sim_run" (fun () -> Sim.run (churn_config c ~trace:ring)))
  in
  let m = Runtime.domain_metrics () in
  let reqs = float_of_int r.Sim.completed in
  (* Every request runs on a fresh instantiation, so instantiations count
     the requests started; those neither resolved nor in flight at the
     end are lost. *)
  let started = m.Runtime.m_instantiations_cold + m.Runtime.m_instantiations_warm in
  let in_flight = started - resolved r in
  {
    Harness.ops = reqs;
    attempted = started;
    fingerprint =
      Pct.fnv_int64
        (Pct.fnv_int64 (Shard.result_fingerprint r) (Shard.metrics_fingerprint m))
        (Trace.fingerprint ring);
    counts =
      [
        ("requests", reqs);
        ("runtime.instantiations_warm_per_req", float_of_int m.Runtime.m_instantiations_warm /. reqs);
        ("runtime.pages_zeroed_per_req", float_of_int m.Runtime.m_pages_zeroed_on_recycle /. reqs);
        ("runtime.transitions_per_req", float_of_int m.Runtime.m_transitions /. reqs);
        ("runtime.shed_frac", float_of_int (sheds r) /. float_of_int started);
        ("faas.cpu_busy_share", r.Sim.cpu_busy_ns /. r.Sim.simulated_ns);
        ("trace.events_per_req", float_of_int (Trace.length ring + Trace.dropped ring) /. reqs);
        ("trace.dropped", float_of_int (Trace.dropped ring));
        ("sim.goodput_rps", r.Sim.goodput_rps);
        ("sim.p99_us", p99_us r);
      ];
    samples_us = [];
    check =
      (fun () ->
        if in_flight >= 0 && in_flight <= churn_concurrency then []
        else
          [
            Printf.sprintf
              "faas_churn: %d requests started, %d resolved, so %d in flight (0..%d expected)"
              started (resolved r) in_flight churn_concurrency;
          ]);
  }

let churn =
  Harness.Workload
    {
      Harness.name = "faas_churn";
      domains = 1;
      ops_unit = "completed simulated requests";
      setup =
        (fun spans meter seed ->
          let c = { seed } in
          Calib.time meter @@ fun () ->
          Spans.with_span spans "faas.warmup" (fun () ->
              ignore
                (Sim.run { (churn_config c ~trace:(Trace.create_ring ())) with Sim.duration_ns = warmup_ns }));
          c);
      digest = (fun c -> c.seed);
      pass = churn_pass;
    }
