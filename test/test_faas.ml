(* Tests for the FaaS platform simulator (Figures 6/7): determinism,
   cross-mode agreement on the computed work, and the qualitative
   properties the figures rely on. *)

module Sim = Sfi_faas.Sim
module Wk = Sfi_faas.Workloads
module W = Sfi_wasm.Ast
module Interp = Sfi_wasm.Interp
module Shard = Sfi_faas.Shard
module Breaker = Sfi_faas.Breaker
module Slo = Sfi_faas.Slo
module Runtime = Sfi_runtime.Runtime
module Trace = Sfi_trace.Trace
module Flight = Sfi_trace.Flight

let quick_cfg ?(mode = Sim.Colorguard) ?(workload = Wk.Hash_balance) () =
  let cfg = Sim.default_config ~mode ~workload () in
  { cfg with Sim.duration_ns = 8.0e6; concurrency = 48 }

let test_workload_modules_run () =
  (* Each request handler is a real Wasm module: spot-check them in the
     interpreter with a couple of seeds. *)
  List.iter
    (fun w ->
      let m = Wk.module_of w in
      let inst = Interp.instantiate m in
      List.iter
        (fun seed ->
          match Interp.invoke inst "handle" [ W.V_i32 seed ] with
          | Ok [ W.V_i32 _ ] -> ()
          | Ok _ -> Alcotest.fail "arity"
          | Error t -> Alcotest.failf "%s trapped: %s" (Wk.name w) (Interp.trap_name t))
        [ 1l; 77l; 123456l ])
    Wk.all

let test_determinism () =
  let r1 = Sim.run (quick_cfg ()) in
  let r2 = Sim.run (quick_cfg ()) in
  Alcotest.(check int) "same completions" r1.Sim.completed r2.Sim.completed;
  Alcotest.(check int64) "same checksum" r1.Sim.checksum r2.Sim.checksum;
  Alcotest.(check int) "same dtlb misses" r1.Sim.dtlb_misses r2.Sim.dtlb_misses

let test_modes_compute_same_requests () =
  (* For a fixed seed and load, ColorGuard and multiprocess complete the
     same requests with the same results (the strategies differ in cost,
     not function). *)
  let cg = Sim.run (quick_cfg ()) in
  let mp = Sim.run (quick_cfg ~mode:(Sim.Multiprocess 4) ()) in
  Alcotest.(check bool) "both complete work" true (cg.Sim.completed > 10 && mp.Sim.completed > 10);
  (* Per-request results are seed-determined, so equal completion counts
     imply equal checksums. *)
  if cg.Sim.completed = mp.Sim.completed then
    Alcotest.(check int64) "checksums agree" cg.Sim.checksum mp.Sim.checksum

let test_colorguard_properties () =
  let r = Sim.run (quick_cfg ()) in
  Alcotest.(check int) "no OS context switches" 0 r.Sim.context_switches;
  Alcotest.(check bool) "user transitions happen" true (r.Sim.user_transitions > 0);
  Alcotest.(check bool) "cpu busy below wall clock" true (r.Sim.cpu_busy_ns <= r.Sim.simulated_ns)

let test_multiprocess_scaling_shape () =
  let switches k =
    (Sim.run (quick_cfg ~mode:(Sim.Multiprocess k) ())).Sim.context_switches
  in
  let s1 = switches 1 and s4 = switches 4 and s12 = switches 12 in
  Alcotest.(check int) "one process never switches" 0 s1;
  Alcotest.(check bool) "switches grow with process count (fig 7a)" true (s4 > 0 && s12 > s4)

(* Processor sharing: every slot is always ready (zero think time) and
   each request spans several epochs, so over several processes each
   timeslice ends in a process switch. The slot whose readiness justified
   a switch must be the one stepped after it, and within a process the
   cursor moves past each pick, so every tenant is served: one process or
   several. *)
let test_fair_switch_steps_probed_slot () =
  let starved mode =
    let cfg =
      {
        (Sim.default_config ~mode ()) with
        Sim.concurrency = 6;
        duration_ns = 2.0e6;
        io_mean_ns = 0.0;
        epoch_ns = 5_000.0;
      }
    in
    let r = Sim.run cfg in
    if mode <> Sim.Colorguard && r.Sim.context_switches = 0 then
      Alcotest.fail "processes never switch";
    Array.fold_left (fun n t -> if t.Sim.t_completed = 0 then n + 1 else n) 0 r.Sim.tenants
  in
  let report =
    List.filter_map
      (fun (name, mode) ->
        match starved mode with
        | 0 -> None
        | n -> Some (Printf.sprintf "%s starved %d of 6" name n))
      [
        ("colorguard", Sim.Colorguard);
        ("2 processes", Sim.Multiprocess 2);
        ("3 processes", Sim.Multiprocess 3);
      ]
  in
  if report <> [] then Alcotest.fail (String.concat "; " report)

let test_efficiency_gap () =
  (* Figure 6's direction: at high process counts ColorGuard serves the
     same load with less CPU. *)
  let cfg = { (quick_cfg ()) with Sim.workload = Wk.Hash_balance } in
  let colorguard = Sim.run { cfg with Sim.mode = Sim.Colorguard } in
  let gain k =
    Sim.throughput_gain ~colorguard ~multiprocess:(Sim.run { cfg with Sim.mode = Sim.Multiprocess k })
  in
  Alcotest.(check bool) "double-digit gain at 12 processes" true (gain 12 > 5.0);
  let gain1 = gain 1 in
  Alcotest.(check bool) "no gain against a single process" true (Float.abs gain1 < 3.0)

let test_dtlb_direction () =
  let cfg = { (quick_cfg ()) with Sim.duration_ns = 12.0e6 } in
  let cg = Sim.run { cfg with Sim.mode = Sim.Colorguard } in
  let mp = Sim.run { cfg with Sim.mode = Sim.Multiprocess 12 } in
  Alcotest.(check bool) "multiprocess misses more (fig 7b)" true
    (mp.Sim.dtlb_misses > cg.Sim.dtlb_misses)

let test_config_validation () =
  Alcotest.check_raises "zero processes rejected"
    (Invalid_argument "Sim: process count must be >= 1") (fun () ->
      ignore (Sim.run (quick_cfg ~mode:(Sim.Multiprocess 0) ())));
  List.iter
    (fun mode ->
      Alcotest.check_raises "zero tenants rejected"
        (Invalid_argument "Sim: concurrency must be >= 1") (fun () ->
          ignore (Sim.run { (quick_cfg ~mode ()) with Sim.concurrency = 0 })))
    [ Sim.Colorguard; Sim.Multiprocess 2 ];
  Alcotest.check_raises "empty run rejected"
    (Invalid_argument "Sim: duration_ns must be > 0") (fun () ->
      ignore (Sim.run { (quick_cfg ()) with Sim.duration_ns = 0.0 }));
  (* Configurations the sim cannot run: an endless closed loop, an epoch
     with no fuel (every request a watchdog kill), and prices or delays
     that would move the clock backwards. Each is refused before anything
     runs, with the reason [Sim.validate] gives, by the sharded entry
     point too. *)
  Alcotest.(check (result unit string)) "default config valid" (Ok ())
    (Sim.validate (quick_cfg ()));
  let epoch_msg = "Sim: epoch_ns must be finite and at least one machine cycle" in
  let nonneg field = Printf.sprintf "Sim: %s must be finite and >= 0" field in
  List.iter
    (fun (name, msg, cfg) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (Sim.run cfg));
      Alcotest.check_raises (name ^ ", 2 shards") (Invalid_argument msg) (fun () ->
          ignore (Shard.run (Shard.default_config ~shards:2 cfg)));
      Alcotest.(check (result unit string))
        (name ^ ": validate agrees")
        (Error (String.sub msg 5 (String.length msg - 5)))
        (Sim.validate cfg))
    (let c = quick_cfg () in
     [
       ("endless closed loop", "Sim: duration_ns must be finite",
        { c with Sim.duration_ns = infinity });
       ("endless open loop", "Sim: duration_ns must be finite",
        { c with Sim.duration_ns = infinity; arrivals = Some [||] });
       ("nan duration", "Sim: duration_ns must be > 0", { c with Sim.duration_ns = nan });
       ("negative duration", "Sim: duration_ns must be > 0",
        { c with Sim.duration_ns = -1.0 });
       ("zero epoch", epoch_msg, { c with Sim.epoch_ns = 0.0 });
       ("epoch under a cycle", epoch_msg, { c with Sim.epoch_ns = 0.1 });
       ("nan epoch", epoch_msg, { c with Sim.epoch_ns = nan });
       ("infinite epoch", epoch_msg, { c with Sim.epoch_ns = infinity });
       ("zero epoch, zero io", epoch_msg, { c with Sim.epoch_ns = 0.0; io_mean_ns = 0.0 });
       ("negative io", nonneg "io_mean_ns", { c with Sim.io_mean_ns = -1.0 });
       ("nan io", nonneg "io_mean_ns", { c with Sim.io_mean_ns = nan });
       ("negative page price", nonneg "page_zero_ns", { c with Sim.page_zero_ns = -5.0 });
       ("legacy lifecycle at no page price", "Sim: legacy_lifecycle needs page_zero_ns > 0",
        { c with Sim.legacy_lifecycle = true });
       ("negative respawn", nonneg "faults.respawn_ns",
        { c with Sim.faults = { Sim.no_faults with Sim.respawn_ns = -1.0 } });
       ("zero deadline", "Sim: faults.deadline_epochs must be >= 1",
        { c with Sim.faults = { Sim.no_faults with Sim.deadline_epochs = 0 } });
       ("zero pool", "Sim: pool_slots must be >= 1",
        { c with Sim.overload = { Sim.no_overload with Sim.pool_slots = Some 0 } });
     ]
     @
     (* An open-loop schedule is checked whole, before anything runs: a
        bad arrival after good ones is refused too. *)
     let sched bad = Some [| { Wk.at_ns = 1.0e3; tenant = 0 }; bad |] in
     let tenant_msg = "Sim: arrival tenant out of range"
     and at_msg = "Sim: arrival at_ns must be finite and >= 0" in
     [
       ("arrival tenant = concurrency", tenant_msg,
        { c with Sim.arrivals = sched { Wk.at_ns = 2.0e3; tenant = c.Sim.concurrency } });
       ("negative arrival tenant", tenant_msg,
        { c with Sim.arrivals = sched { Wk.at_ns = 2.0e3; tenant = -1 } });
       ("tenant out of range at a bad time", tenant_msg,
        { c with Sim.arrivals = sched { Wk.at_ns = nan; tenant = 1000 } });
       ("nan arrival", at_msg, { c with Sim.arrivals = sched { Wk.at_ns = nan; tenant = 1 } });
       ("infinite arrival", at_msg,
        { c with Sim.arrivals = sched { Wk.at_ns = infinity; tenant = 1 } });
       ("negative arrival", at_msg,
        { c with Sim.arrivals = sched { Wk.at_ns = -1.0; tenant = 1 } });
       ("arrival for tenant 9 of 4", tenant_msg,
        { c with Sim.concurrency = 4; arrivals = sched { Wk.at_ns = 2.0e3; tenant = 9 } });
     ]);
  (* The schedule's boundary values run: an arrival at time zero, and one
     for the last tenant. *)
  Alcotest.(check (result unit string)) "arrival at 0 for the last tenant valid" (Ok ())
    (Sim.validate
       { (quick_cfg ()) with Sim.arrivals = Some [| { Wk.at_ns = 0.0; tenant = 47 } |] });
  let r =
    Sim.run
      {
        (quick_cfg ()) with
        Sim.duration_ns = 1.0e6;
        arrivals = Some [| { Wk.at_ns = 0.0; tenant = 0 }; { Wk.at_ns = 0.0; tenant = 47 } |];
      }
  in
  Alcotest.(check int) "both arrivals served" 2 r.Sim.completed;
  (* The boundary values stay runnable: no IO wait and free pages. *)
  let r =
    Sim.run { (quick_cfg ()) with Sim.io_mean_ns = 0.0; page_zero_ns = 0.0; duration_ns = 1.0e6 }
  in
  Alcotest.(check bool) "zero io runs" true (r.Sim.completed > 0);
  (* Runs that do no CPU work report zero rates and full availability,
     never NaN: an empty open-loop schedule, one that starts after the
     run ends, and a sharded run with no tenants at all. *)
  let idle name (r : Sim.result) =
    Alcotest.(check int) (name ^ ": nothing completed") 0 r.Sim.completed;
    Alcotest.(check (float 0.0)) (name ^ ": throughput") 0.0 r.Sim.throughput_rps;
    Alcotest.(check (float 0.0)) (name ^ ": goodput") 0.0 r.Sim.goodput_rps;
    Alcotest.(check (float 0.0)) (name ^ ": capacity") 0.0 r.Sim.capacity_rps;
    Alcotest.(check (float 0.0)) (name ^ ": availability") 1.0 r.Sim.availability
  in
  idle "empty schedule" (Sim.run { (quick_cfg ()) with Sim.arrivals = Some [||] });
  idle "late schedule"
    (Sim.run
       { (quick_cfg ()) with Sim.arrivals = Some [| { Wk.at_ns = 9.0e6; tenant = 0 } |] });
  idle "no tenants"
    (Shard.run (Shard.default_config ~shards:2 { (quick_cfg ()) with Sim.concurrency = 0 }))
      .Shard.r_result

(* Each tenant serves its own arrivals in time order, whatever order the
   schedule lists them in: a time-ordered schedule (the one the sorting is
   skipped for), the same reversed and shuffled, and one with equal times
   give the same run. *)
let test_arrival_order_irrelevant () =
  let tenants = 8 in
  let arr = Wk.synthesize ~seed:3L ~tenants ~duration_ns:2.0e6 ~rps:200_000.0 () in
  let run arr =
    Shard.result_fingerprint
      (Sim.run
         {
           (Sim.default_config ~workload:Wk.Micro_kv ()) with
           Sim.concurrency = tenants;
           duration_ns = 3.0e6;
           arrivals = Some arr;
         })
  in
  let rev = Array.of_list (List.rev (Array.to_list arr)) in
  let shuffled = Array.copy arr in
  let rng = Random.State.make [| 7 |] in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- x
  done;
  let want = run arr in
  Alcotest.(check bool) "schedule not empty" true (Array.length arr > 100);
  Alcotest.(check int64) "reversed" want (run rev);
  Alcotest.(check int64) "shuffled" want (run shuffled);
  let ties =
    Array.map (fun a -> { a with Wk.at_ns = Float.round (a.Wk.at_ns /. 1e5) *. 1e5 }) arr
  in
  Alcotest.(check int64) "ties, reversed" (run ties)
    (run (Array.of_list (List.rev (Array.to_list ties))))

let test_faulty_sim_contained () =
  (* Misbehaving tenants: the simulation must run to completion (nothing
     sandbox-attributable escapes Sim.run), report a degraded availability,
     and keep serving the well-behaved majority. *)
  let faults =
    { Sim.no_faults with Sim.trap_rate = 0.15; runaway_rate = 0.05; deadline_epochs = 2 }
  in
  let base = quick_cfg () in
  let cfg = { base with Sim.faults } in
  let r = Sim.run cfg in
  Alcotest.(check bool) "some requests completed" true (r.Sim.completed > 0);
  Alcotest.(check bool) "some requests failed" true (r.Sim.failed > 0);
  Alcotest.(check bool) "availability strictly between 0 and 1" true
    (r.Sim.availability > 0.0 && r.Sim.availability < 1.0);
  Alcotest.(check bool) "goodput below throughput" true
    (r.Sim.goodput_rps < r.Sim.throughput_rps);
  Alcotest.(check int) "colorguard has no blast radius" 0 r.Sim.collateral_aborts;
  Alcotest.(check bool) "killed slots were recycled" true (r.Sim.recycles > 0);
  (* Same faults under multiprocess: still contained, still completes. *)
  let mp = Sim.run { cfg with Sim.mode = Sim.Multiprocess 4 } in
  Alcotest.(check bool) "multiprocess completes too" true (mp.Sim.completed > 0);
  Alcotest.(check bool) "multiprocess availability sane" true
    (mp.Sim.availability > 0.0 && mp.Sim.availability <= 1.0)

let test_fault_free_unchanged () =
  (* The fault machinery must not perturb the legacy zero-fault results:
     same seed, same checksum, availability exactly 1. *)
  let r = Sim.run (quick_cfg ()) in
  Alcotest.(check int) "no failures" 0 r.Sim.failed;
  Alcotest.(check bool) "availability 1.0" true (r.Sim.availability = 1.0);
  Alcotest.(check bool) "goodput = throughput" true
    (Float.abs (r.Sim.goodput_rps -. r.Sim.throughput_rps) < 1e-9)

(* --- golden digests ------------------------------------------------- *)

(* Every simulated statistic, trace event and runtime counter of a
   matrix of small configs, pinned as three FNV digests each: the
   result ([Shard.result_fingerprint]), the armed trace ring
   ([Trace.fingerprint]) and the domain's runtime counters
   ([Shard.metrics_fingerprint]). A refactor of the sim must leave all
   of them unchanged. A deliberate behaviour change re-records the
   digests and names itself in CHANGES.md. *)

let golden_base ?(workload = Wk.Hash_balance) ?(concurrency = 24) ?(duration_ns = 3.0e6)
    ?(io_mean_ns = 100_000.0) ?(epoch_ns = 5_000.0) cfg =
  { cfg with Sim.workload; concurrency; duration_ns; io_mean_ns; epoch_ns; seed = 0x60D1L }

let golden_overload () =
  let ov =
    {
      Sim.no_overload with
      Sim.pool_slots = Some 8;
      admission = Some Runtime.default_admission;
      breaker = Some { Breaker.default_config with Breaker.failure_threshold = 3 };
      degradation = true;
      hedged_retries = true;
      request_deadline_ns = Some 60_000.0;
      crash_tenants = [ 5 ];
      low_priority = (fun id -> id mod 4 = 3);
      slo = Some (Slo.default_config ~latency_ns:40_000.0 ~fast_window_ns:100_000.0 ());
    }
  in
  golden_base (Sim.default_config ~churn:true ~overload:ov ())

let golden_chaos flight =
  let ov =
    {
      Sim.no_overload with
      Sim.pool_slots = Some 12;
      admission = Some Runtime.default_admission;
      breaker = Some { Breaker.default_config with Breaker.failure_threshold = 1 };
    }
  in
  let chaos =
    List.init 18 (fun i ->
        let at_ns = 100_000.0 +. (float_of_int i *. 140_000.0) in
        let action =
          match i mod 3 with
          | 0 -> Sim.Chaos_kill
          | 1 -> Sim.Chaos_latency { factor = 3.0; window_ns = 200_000.0 }
          | _ -> Sim.Chaos_instantiate_fail 2
        in
        { Sim.at_ns; action })
  in
  golden_base
    (Sim.default_config ~churn:true ~overload:ov ~chaos ~flight ())

let golden_open_loop () =
  let ov =
    {
      Sim.no_overload with
      Sim.pool_slots = Some 8;
      admission =
        Some { Runtime.default_admission with Runtime.tenant_rate = 5_000.0; tenant_burst = 1.0 };
    }
  in
  let cfg = golden_base (Sim.default_config ~churn:true ~overload:ov ()) in
  {
    cfg with
    Sim.arrivals =
      Some
        (Wk.synthesize ~seed:0x60D1L ~tenants:cfg.Sim.concurrency
           ~duration_ns:(0.8 *. cfg.Sim.duration_ns) ~rps:150_000.0
           ~shape:(Wk.Diurnal { trough = 0.3 })
           ~popularity:(Wk.Zipf { skew = 1.1 })
           ());
  }

(* (result, trace, metrics) digests of one unsharded run on this domain. *)
let sim_digests cfg =
  let ring = Trace.create_ring ~capacity:16384 () in
  Runtime.reset_domain_metrics ();
  let r = Sim.run { cfg with Sim.trace = ring } in
  (Shard.result_fingerprint r, Trace.fingerprint ring, Shard.metrics_fingerprint (Runtime.domain_metrics ()))

let shard_digests cfg ~shards =
  let rep =
    Shard.run
      (Shard.default_config ~trace_capacity:16384 ~shards
         { cfg with Sim.trace = Trace.create_ring ~capacity:1 () })
  in
  ( Shard.result_fingerprint rep.Shard.r_result,
    (match rep.Shard.r_trace with Some t -> Trace.fingerprint t | None -> 0L),
    Shard.metrics_fingerprint rep.Shard.r_metrics )

(* Freeze reasons, times and counter snapshots of a flight recorder. *)
let flight_digest fr =
  let h = ref 0xCBF29CE484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h v) 0x100000001B3L in
  List.iter
    (fun b ->
      String.iter (fun c -> mix (Int64.of_int (Char.code c))) b.Flight.b_reason;
      mix (Int64.of_int b.Flight.b_at_ns);
      mix (Int64.of_int (List.length b.Flight.b_events));
      List.iter (fun (_, v) -> mix (Int64.bits_of_float v)) b.Flight.b_counters)
    (Flight.bundles fr);
  !h

let golden_cases () =
  let fr = Flight.create ~capacity:64 () in
  [
    ( "closed-loop colorguard",
      (fun () -> sim_digests (golden_base (Sim.default_config ()))),
      (0x645190009b36f582L, 0x47aacac3296ed3f5L, 0xcdf75d74716d1f24L) );
    ( "multiprocess 4, trap/runaway/watchdog faults",
      (fun () ->
        let faults =
          { Sim.no_faults with Sim.trap_rate = 0.08; runaway_rate = 0.04; deadline_epochs = 2 }
        in
        sim_digests
          (golden_base
             (Sim.default_config ~mode:(Sim.Multiprocess 4) ~faults ()))),
      (0x8649cc8838a8a709L, 0x710845e0c6f5cd8L, 0x156fbd30cdfeb126L) );
    ( "overload",
      (fun () -> sim_digests (golden_overload ())),
      (0x65039fcac4185c83L, 0xa75b97e71055309cL, 0x13875dbe447316aaL) );
    ( "churn, CoW lifecycle billing",
      (fun () -> sim_digests (golden_base (Sim.default_config ~churn:true ~page_zero_ns:4937.5 ()))),
      (0x3f32ecc73e38edcL, 0x860b499a136334e1L, 0xd524e8129306e285L) );
    ( "churn, legacy lifecycle billing",
      (fun () ->
        sim_digests
          (golden_base
             (Sim.default_config ~churn:true ~page_zero_ns:4937.5 ~legacy_lifecycle:true ()))),
      (0x641907386910e15eL, 0xddb794557c381d49L, 0xe6850c106b0c7a1fL) );
    ( "chaos with a flight recorder",
      (fun () ->
        let r, t, m = sim_digests (golden_chaos fr) in
        (r, Int64.logxor t (flight_digest fr), m)),
      (0xb8e1d2b6d844325bL, 0xbfffaae706201b28L, 0xd25a0eb3a3b4f737L) );
    ( "open loop with admission",
      (fun () -> sim_digests (golden_open_loop ())),
      (0x4b1ffb4440b67b39L, 0x656fc1d18db143b7L, 0xe54a491594106d77L) );
    ( "FIFO admission, 4 slots for 96 tenants",
      (fun () ->
        let ov = { Sim.no_overload with Sim.pool_slots = Some 4 } in
        sim_digests
          (golden_base ~concurrency:96
             (Sim.default_config ~churn:true ~overload:ov ()))),
      (0xed393360d9da72c9L, 0x3286d1c65bfff43cL, 0x84188b664b30b656L) );
    ( "4 shards over 3 tenants",
      (fun () ->
        shard_digests ~shards:4
          { (golden_open_loop ()) with Sim.concurrency = 3; arrivals = None }),
      (0x29d834db0dce0021L, 0x69fe4767e5f6a030L, 0xb6bb437ecf5a7f5fL) );
  ]

let test_golden_digests () =
  (* Run every case before checking any, so a re-recording sees them all
     in the test's output. *)
  let got = List.map (fun (name, run, expect) -> (name, run (), expect)) (golden_cases ()) in
  List.iter
    (fun (name, (r, t, m), _) -> Printf.printf "%s: (0x%LxL, 0x%LxL, 0x%LxL)\n" name r t m)
    got;
  List.iter
    (fun (name, (r, t, m), (er, et, em)) ->
      Alcotest.(check int64) (name ^ ": result") er r;
      Alcotest.(check int64) (name ^ ": trace") et t;
      Alcotest.(check int64) (name ^ ": runtime counters") em m)
    got

(* --- accounting identities ------------------------------------------ *)

(* Every request outcome is booked once: the per-tenant tallies add up to
   the run's counters, the latency histograms hold one sample per
   completion, and a sharded run's per-shard stats add up to its merged
   result. Checked over a small random config space. *)

let identity_cfg (multiprocess, open_loop, faulty, overloaded, churn, chaos, seed) =
  let ov =
    if overloaded then
      {
        Sim.no_overload with
        Sim.pool_slots = Some 6;
        admission = Some Runtime.default_admission;
        breaker = Some { Breaker.default_config with Breaker.failure_threshold = 2 };
        degradation = true;
        hedged_retries = true;
        crash_tenants = [ 1 ];
        low_priority = (fun id -> id mod 3 = 2);
      }
    else Sim.no_overload
  in
  let faults =
    if faulty then
      { Sim.no_faults with Sim.trap_rate = 0.1; runaway_rate = 0.05; deadline_epochs = 2 }
    else Sim.no_faults
  in
  let chaos =
    if chaos then
      List.init 6 (fun i ->
          {
            Sim.at_ns = 100_000.0 +. (float_of_int i *. 150_000.0);
            action =
              (match i mod 3 with
              | 0 -> Sim.Chaos_kill
              | 1 -> Sim.Chaos_latency { factor = 2.0; window_ns = 100_000.0 }
              | _ -> Sim.Chaos_instantiate_fail 1);
          })
    else []
  in
  let mode = if multiprocess then Sim.Multiprocess 2 else Sim.Colorguard in
  let cfg =
    golden_base ~concurrency:12 ~duration_ns:1.5e6
      (Sim.default_config ~mode ~faults ~churn ~overload:ov ~chaos ())
  in
  let cfg = { cfg with Sim.seed = Int64.of_int (seed + 1) } in
  if open_loop then
    {
      cfg with
      Sim.arrivals =
        Some
          (Wk.synthesize ~seed:cfg.Sim.seed ~tenants:12 ~duration_ns:1.2e6 ~rps:100_000.0
             ~shape:Wk.Steady ~popularity:(Wk.Zipf { skew = 1.0 }) ());
    }
  else cfg

let prop_accounting_identities =
  let gen =
    QCheck.(
      pair
        (tup6 bool bool bool bool bool bool)
        (pair (int_range 1 3) small_nat))
  in
  QCheck.Test.make ~count:30 ~name:"request outcomes are booked once" gen
    (fun ((mp, ol, fa, ov, ch, cs), (shards, seed)) ->
      let cfg = identity_cfg (mp, ol, fa, ov, ch, cs, seed) in
      let rep = Shard.run (Shard.default_config ~shards cfg) in
      let r = rep.Shard.r_result in
      let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
      let check name a b =
        if a <> b then QCheck.Test.fail_reportf "%s: %d <> %d" name a b
      in
      check "sum t_completed = completed" (sum (fun t -> t.Sim.t_completed) r.Sim.tenants)
        r.Sim.completed;
      check "latency samples = completed"
        (sum (fun t -> Sfi_util.Hist.count t.Sim.t_lat_hist) r.Sim.tenants)
        r.Sim.completed;
      check "sum t_failed = failed + collateral"
        (sum (fun t -> t.Sim.t_failed) r.Sim.tenants)
        (r.Sim.failed + r.Sim.collateral_aborts);
      check "sum t_shed = sheds" (sum (fun t -> t.Sim.t_shed) r.Sim.tenants) (Sim.sheds r);
      check "sum sh_completed = completed"
        (sum (fun s -> s.Shard.sh_completed) rep.Shard.r_shards)
        r.Sim.completed;
      check "sum sh_shed = sheds" (sum (fun s -> s.Shard.sh_shed) rep.Shard.r_shards) (Sim.sheds r);
      check "sum sh_tenants = tenants"
        (sum (fun s -> s.Shard.sh_tenants) rep.Shard.r_shards)
        (Array.length r.Sim.tenants);
      true)

(* --- the ready set against the linear scans it replaced --- *)

module Ready = Sfi_faas.Ready

type ready_op =
  | Set_due of int * float (* slot, due time relative to the clock *)
  | Advance of float
  | Pick of int (* process, -1 = any *)

(* The reference pick: the first slot due at or before [now], scanning
   every slot from the cursor, wrapping round. *)
let scan_pick due ~now ~cursor ~proc ~procs =
  let n = Array.length due in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < n do
    let j = cursor + !i in
    let j = if j < n then j else j - n in
    if (proc < 0 || j mod procs = proc) && due.(j) <= now then found := j;
    incr i
  done;
  !found

let prop_ready_set_matches_scan =
  let gen =
    QCheck.Gen.(
      int_range 1 70 >>= fun slots ->
      int_range 1 4 >>= fun procs ->
      let delta =
        frequency
          [
            (3, float_range (-50.0) 100.0);
            (3, map float_of_int (int_range (-5) 5));
            (1, return infinity);
          ]
      in
      list_size (int_range 1 300)
        (frequency
           [
             (5, map2 (fun i d -> Set_due (i, d)) (int_bound (slots - 1)) delta);
             (2, map (fun d -> Advance d) (oneof [ float_range 0.0 30.0; return 0.0 ]));
             (3, map (fun p -> Pick p) (int_range (-1) (procs - 1)));
           ])
      >>= fun ops -> return (slots, procs, ops))
  in
  let print (slots, procs, ops) =
    Printf.sprintf "%d slots, %d procs, %d ops" slots procs (List.length ops)
  in
  QCheck.Test.make ~count:300 ~name:"ready set picks what the linear scan picked"
    (QCheck.make ~print gen)
    (fun (slots, procs, ops) ->
      let rs = Ready.create ~slots ~procs in
      let due = Array.make slots infinity in
      let now = ref 0.0 and cursor = ref 0 in
      let check_next () =
        (* The earliest due time still in the future; with no slot
           ready, the old fold over every slot. *)
        let future = Array.fold_left (fun acc d -> if d > !now then min acc d else acc) infinity due in
        if Ready.next_ready_time rs <> future then
          QCheck.Test.fail_reportf "next_ready_time %g, scan %g" (Ready.next_ready_time rs) future;
        if scan_pick due ~now:!now ~cursor:0 ~proc:(-1) ~procs < 0 then begin
          let all = Array.fold_left min infinity due in
          if Ready.next_ready_time rs <> all then
            QCheck.Test.fail_reportf "idle next_ready_time %g, fold %g"
              (Ready.next_ready_time rs) all
        end
      in
      List.iter
        (fun op ->
          (match op with
          | Set_due (i, d) ->
              due.(i) <- !now +. d;
              Ready.set_due rs i due.(i) ~now:!now
          | Advance d -> now := !now +. d
          | Pick proc ->
              Ready.advance rs ~now:!now;
              let want = scan_pick due ~now:!now ~cursor:!cursor ~proc ~procs in
              let got = Ready.pick rs ~cursor:!cursor ~proc in
              if got <> want then
                QCheck.Test.fail_reportf "cursor %d proc %d: picked %d, scan %d" !cursor proc
                  got want;
              if got >= 0 then cursor := (got + 1) mod slots);
          Ready.advance rs ~now:!now;
          check_next ())
        ops;
      true)

(* --- host cost of a request --- *)

(* Minor words a single-domain run allocates per completed request, net of
   set-up: [cfg ms] at two lengths [ms], so compilation, engine creation
   and any arrival schedule cancel out. *)
let marginal_minor_words ~min_requests cfg (short, long) =
  let run ms =
    let cfg = cfg ms in
    let w0 = Gc.minor_words () in
    let r = Sim.run cfg in
    (Gc.minor_words () -. w0, r.Sim.completed)
  in
  let w1, c1 = run short and w2, c2 = run long in
  if c2 - c1 < min_requests then Alcotest.failf "too few requests to measure: %d" (c2 - c1);
  (w2 -. w1) /. float_of_int (c2 - c1)

(* An open-loop Micro-KV request under admission. *)
let minor_words_per_request () =
  let tenants = 64 in
  marginal_minor_words ~min_requests:5000
    (fun ms ->
      let arrivals =
        Wk.synthesize ~seed:1L ~tenants ~duration_ns:(ms *. 1e6) ~rps:1_000_000.0
          ~shape:(Wk.Diurnal { trough = 0.25 })
          ~popularity:(Wk.Zipf { skew = 0.6 })
          ()
      in
      {
        (Sim.default_config ~workload:Wk.Micro_kv
           ~overload:
             {
               Sim.no_overload with
               Sim.admission =
                 Some { Runtime.default_admission with Runtime.tenant_rate = 200_000.0 };
             }
           ())
        with
        Sim.concurrency = tenants;
        duration_ns = (ms +. 2.0) *. 1e6;
        seed = 1L;
        arrivals = Some arrivals;
      })
    (2.0, 12.0)

(* A request of the closed-loop churn path: 128 tenants, Micro-KV, every
   request on a recycled instance with its lifecycle pages priced, so
   every epoch's [charge] reads the engine's lifecycle counters. *)
let minor_words_per_churn_request () =
  marginal_minor_words ~min_requests:1000
    (fun ms ->
      {
        (Sim.default_config ~workload:Wk.Micro_kv ~churn:true ~page_zero_ns:4937.5 ()) with
        Sim.duration_ns = ms *. 1e6;
        io_mean_ns = 200_000.0;
        epoch_ns = 50_000.0;
        seed = 1L;
      })
    (5.0, 25.0)

(* A request's host allocation is bounded: the context switch copies no
   registers when nothing else ran, the scheduler's ready set and the
   per-slot times allocate nothing, and the histograms allocate only a
   winning exemplar. The bound is 55.1 words, measured alone and after the
   whole suite, plus 3.4%. The space's translation memo answers most VMA
   and region lookups without a tree walk, whose result tuple allocates,
   and the arrival schedule is not sorted when already in order, as
   [Workloads.synthesize] makes it (the sort's scratch arrays grew with
   the run): 82.3 words with neither, 71.0 with the memo alone. A memo
   that stops hitting still gives the same results: this bound is what
   notices. *)
let test_request_allocation_bound () =
  let words = minor_words_per_request () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per request <= 57" words)
    true (words <= 57.0)

(* The churn path's bound: 149.2 words when the bound was set alone and
   149.3 after the whole suite, plus 4.5%; 170.2 without the translation
   memo. Under processor sharing, which serves all 128 tenants, it reads
   150.4 alone and 150.5 after the suite. The warm cycle reaches a region's private pages by index, a
   recycle walks the list of dirtied offsets (302.2 words when both went
   through hash tables), and a histogram's counts grow with the octaves
   it records. [charge] reads the lifecycle counters without building a
   [Runtime.metrics] record, and the run's floats stay unboxed. *)
let test_churn_allocation_bound () =
  let words = minor_words_per_churn_request () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per churn request <= 156" words)
    true (words <= 156.0)

let tests =
  [
    Harness.case "workload modules run" test_workload_modules_run;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "modes compute the same requests" `Slow test_modes_compute_same_requests;
    Alcotest.test_case "colorguard properties" `Slow test_colorguard_properties;
    Alcotest.test_case "multiprocess switch growth" `Slow test_multiprocess_scaling_shape;
    Alcotest.test_case "efficiency gap" `Slow test_efficiency_gap;
    Alcotest.test_case "dtlb direction" `Slow test_dtlb_direction;
    Harness.case "fair switch steps the probed slot" test_fair_switch_steps_probed_slot;
    Harness.case "config validation" test_config_validation;
    Harness.case "arrival order irrelevant" test_arrival_order_irrelevant;
    Alcotest.test_case "faulty sim contained" `Slow test_faulty_sim_contained;
    Alcotest.test_case "fault-free behavior unchanged" `Slow test_fault_free_unchanged;
    Harness.case "golden sim digests" test_golden_digests;
    QCheck_alcotest.to_alcotest prop_accounting_identities;
    QCheck_alcotest.to_alcotest prop_ready_set_matches_scan;
    Harness.case "request allocation bound" test_request_allocation_bound;
    Harness.case "churn request allocation bound" test_churn_allocation_bound;
  ]
