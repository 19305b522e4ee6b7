(* Tests for the sharded serving layer: the 1-shard bit-identity
   contract with the unsharded sim (result, runtime counters and trace
   fingerprint, on both engines, closed and open loop), K-shard
   determinism at a fixed seed, and the dispatch-plan properties
   (hash placement, tail-only work stealing). *)

module Sim = Sfi_faas.Sim
module Shard = Sfi_faas.Shard
module Wk = Sfi_faas.Workloads
module Trace = Sfi_trace.Trace
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine

let base_cfg ?(seed = 11L) ?(workload = Wk.Micro_kv) ?(engine = Machine.Compiled)
    ?(concurrency = 24) ?(open_loop = false) () =
  let cfg = Sim.default_config ~workload ~engine () in
  let cfg = { cfg with Sim.concurrency; duration_ns = 8.0e6; io_mean_ns = 1.0e6; seed } in
  if open_loop then
    {
      cfg with
      Sim.arrivals =
        Some
          (Wk.synthesize ~seed ~tenants:concurrency ~duration_ns:cfg.Sim.duration_ns
             ~rps:80_000.0
             ~shape:(Wk.Diurnal { trough = 0.3 })
             ~popularity:(Wk.Zipf { skew = 1.1 })
             ());
    }
  else cfg

(* Run the unsharded sim on this domain with a fresh ring and a fresh
   DLS scope, and digest everything the identity contract covers. *)
let unsharded_fingerprints cfg ~trace_capacity =
  let ring = Trace.create_ring ~capacity:trace_capacity () in
  Runtime.reset_domain_metrics ();
  let r = Sim.run { cfg with Sim.trace = ring } in
  let m = Runtime.domain_metrics () in
  ( Shard.result_fingerprint r,
    Trace.fingerprint ring,
    Shard.metrics_fingerprint m )

let sharded_fingerprints cfg ~shards ~trace_capacity =
  let rep =
    Shard.run
      (Shard.default_config ~trace_capacity ~shards
         { cfg with Sim.trace = Trace.create_ring ~capacity:1 () })
  in
  ( Shard.result_fingerprint rep.Shard.r_result,
    (match rep.Shard.r_trace with Some t -> Trace.fingerprint t | None -> 0L),
    Shard.metrics_fingerprint rep.Shard.r_metrics )

let test_one_shard_identity () =
  (* Exercise the full merge surface: admission, faults, open loop. *)
  let ov =
    {
      Sim.no_overload with
      Sim.pool_slots = Some 16;
      admission = Some Runtime.default_admission;
    }
  in
  let faults = { Sim.no_faults with Sim.trap_rate = 0.05; deadline_epochs = 3 } in
  List.iter
    (fun open_loop ->
      let cfg = { (base_cfg ~open_loop ()) with Sim.overload = ov; faults } in
      let r1, t1, m1 = unsharded_fingerprints cfg ~trace_capacity:4096 in
      let r2, t2, m2 = sharded_fingerprints cfg ~shards:1 ~trace_capacity:4096 in
      let tag = if open_loop then "open loop" else "closed loop" in
      Alcotest.(check int64) (tag ^ ": result bit-identical") r1 r2;
      Alcotest.(check int64) (tag ^ ": trace fingerprint identical") t1 t2;
      Alcotest.(check int64) (tag ^ ": runtime counters identical") m1 m2)
    [ false; true ]

let prop_one_shard_bit_identical =
  QCheck.Test.make ~name:"1-shard run == unsharded Sim.run (both engines)"
    ~count:6
    QCheck.(triple small_nat bool bool)
    (fun (seed, open_loop, compiled) ->
      let engine = if compiled then Machine.Compiled else Machine.Reference in
      let cfg =
        base_cfg
          ~seed:(Int64.of_int (seed + 1))
          ~engine ~open_loop ~concurrency:12 ()
      in
      let r1, t1, m1 = unsharded_fingerprints cfg ~trace_capacity:4096 in
      let r2, t2, m2 = sharded_fingerprints cfg ~shards:1 ~trace_capacity:4096 in
      r1 = r2 && t1 = t2 && m1 = m2)

let test_ksharded_deterministic () =
  List.iter
    (fun engine ->
      let cfg = base_cfg ~engine ~open_loop:true ~concurrency:32 ~seed:7L () in
      let run c = sharded_fingerprints c ~shards:4 ~trace_capacity:4096 in
      let r1, t1, m1 = run cfg in
      let r2, t2, m2 = run cfg in
      Alcotest.(check int64) "result deterministic across repeats" r1 r2;
      Alcotest.(check int64) "trace deterministic across repeats" t1 t2;
      Alcotest.(check int64) "metrics deterministic across repeats" m1 m2;
      let r3, _, _ = run (base_cfg ~engine ~open_loop:true ~concurrency:32 ~seed:8L ()) in
      Alcotest.(check bool) "different seed diverges" true (r1 <> r3))
    [ Machine.Compiled; Machine.Reference ]

let test_ksharded_report_shape () =
  let cfg = base_cfg ~open_loop:true ~concurrency:32 () in
  let rep = Shard.run (Shard.default_config ~shards:4 cfg) in
  let r = rep.Shard.r_result in
  Alcotest.(check int) "tenants preserved under re-indexing" 32
    (Array.length r.Sim.tenants);
  Array.iteri
    (fun g t -> Alcotest.(check int) "tenant ids global and in order" g t.Sim.t_id)
    r.Sim.tenants;
  Alcotest.(check int) "every tenant lives on exactly one shard" 32
    (Array.fold_left (fun acc s -> acc + s.Shard.sh_tenants) 0 rep.Shard.r_shards);
  Alcotest.(check bool) "work completed" true (r.Sim.completed > 0);
  Alcotest.(check bool) "completions attributed to shards" true
    (Array.fold_left (fun acc s -> acc + s.Shard.sh_completed) 0 rep.Shard.r_shards
    = r.Sim.completed);
  Alcotest.(check bool) "runtime metrics harvested before the join" true
    (rep.Shard.r_metrics.Runtime.m_transitions > 0);
  Alcotest.(check bool) "no trace requested, none produced" true
    (rep.Shard.r_trace = None);
  let p50, p95, p99 = Shard.latency_summary r in
  Alcotest.(check bool) "latency summary ordered" true
    (p50 > 0.0 && p50 <= p95 && p95 <= p99)

let test_more_shards_than_tenants () =
  let cfg = base_cfg ~concurrency:2 () in
  let rep = Shard.run (Shard.default_config ~shards:4 cfg) in
  Alcotest.(check int) "tenants preserved" 2
    (Array.length rep.Shard.r_result.Sim.tenants);
  Alcotest.(check bool) "both tenants served" true
    (Array.for_all (fun t -> t.Sim.t_completed > 0) rep.Shard.r_result.Sim.tenants);
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Shard.run: shards must be >= 1") (fun () ->
      ignore (Shard.run (Shard.default_config ~shards:0 cfg)))

let test_plan_stealing () =
  let shards = 4 in
  let n = 64 in
  (* one scorching tenant, a flat tail *)
  let weights = Array.init n (fun i -> if i = 0 then 50.0 else 1.0) in
  let spread a =
    let load = Array.make shards 0.0 in
    Array.iteri (fun t s -> load.(s) <- load.(s) +. weights.(t)) a;
    Array.fold_left Float.max neg_infinity load
    -. Array.fold_left Float.min infinity load
  in
  let home, s0 = Shard.plan ~shards ~steal:false weights in
  Alcotest.(check int) "no steals when disabled" 0 s0;
  Array.iteri
    (fun t s ->
      Alcotest.(check int) "steal-free plan is home placement"
        (Shard.home_shard ~shards t) s)
    home;
  let assign, steals = Shard.plan ~shards ~steal:true weights in
  Array.iter
    (fun s -> Alcotest.(check bool) "assignment in range" true (s >= 0 && s < shards))
    assign;
  Alcotest.(check bool) "imbalance triggers steals" true (steals > 0);
  Alcotest.(check int) "hot tenant stays shard-local (tail-only stealing)"
    (Shard.home_shard ~shards 0)
    assign.(0);
  Alcotest.(check bool) "stealing shrinks the load spread" true
    (spread assign < spread home);
  let assign', steals' = Shard.plan ~shards ~steal:true weights in
  Alcotest.(check bool) "plan is deterministic" true
    (assign' = assign && steals' = steals)

let tests =
  [
    Harness.case "one shard is bit-identical to the unsharded sim"
      test_one_shard_identity;
    QCheck_alcotest.to_alcotest prop_one_shard_bit_identical;
    Harness.case "k-shard runs are deterministic" test_ksharded_deterministic;
    Harness.case "k-shard report shape and merge accounting"
      test_ksharded_report_shape;
    Harness.case "more shards than tenants" test_more_shards_than_tenants;
    Harness.case "dispatch plan: placement and tail stealing" test_plan_stealing;
  ]
