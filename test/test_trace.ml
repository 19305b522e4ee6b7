(* Tests for the structured tracing layer: ring-buffer semantics, the
   null sink's inertness, span validation, the event stream a traced
   engine run produces, the hot-PC profiler, aggregation, and the
   Chrome-JSON / Prometheus exports. The load-bearing properties are
   observational: attaching a sink (or the profiler) must never change
   what the machine computes or counts, and the captured stream must
   stay structurally well-formed (nested spans, per-track time order). *)

module W = Sfi_wasm.Ast
module Trace = Sfi_trace.Trace
module Machine = Sfi_machine.Machine
module Codegen = Sfi_core.Codegen
module Runtime = Sfi_runtime.Runtime
module Sim = Sfi_faas.Sim
open Sfi_wasm.Builder

let expect_ok = function
  | Ok v -> v
  | Error k -> Alcotest.failf "unexpected trap: %s" (Sfi_x86.Ast.trap_name k)

let check_valid name sink =
  match Trace.validate sink with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: invalid stream: %s" name m

(* A loop that stores then reloads [n] words: enough memory traffic for
   TLB events and enough straight-line work for the sampling profiler. *)
let traced_module () =
  let b = create ~memory_pages:1 () in
  let touch = declare b "touch" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b touch ~locals:[ W.I32; W.I32 ]
    [
      block
        [
          loop
            [
              get 1;
              get 0;
              ge_u;
              br_if 1;
              get 1;
              i32 4;
              mul;
              get 1;
              store32 ();
              get 2;
              get 1;
              i32 4;
              mul;
              load32 ();
              add;
              set 2;
              get 1;
              i32 1;
              add;
              set 1;
              br 0;
            ];
        ];
      get 2;
    ];
  build b

let traced_compiled = lazy (Codegen.compile (Codegen.default_config ()) (traced_module ()))

let test_null_sink_inert () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Alcotest.(check int) "capacity" 0 (Trace.capacity t);
  (* Emitters are no-ops, not errors. *)
  Trace.call_begin t ~sandbox:0;
  Trace.hostcall t ~sandbox:0 ~cls:2 ~cycles:100;
  Trace.call_end t ~sandbox:0;
  Trace.tlb_fill t ~page:42;
  Alcotest.(check int) "no events recorded" 0 (Trace.length t);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t);
  check_valid "null" t

let test_ring_keeps_first_and_counts_drops () =
  let t = Trace.create_ring ~capacity:4 () in
  Alcotest.(check bool) "enabled" true (Trace.enabled t);
  Alcotest.(check int) "capacity" 4 (Trace.capacity t);
  for page = 1 to 6 do
    Trace.tlb_fill t ~page
  done;
  Alcotest.(check int) "length clamped" 4 (Trace.length t);
  Alcotest.(check int) "overflow counted" 2 (Trace.dropped t);
  (* Keep-first policy: the retained prefix is events 1..4. *)
  let pages = List.map (fun e -> e.Trace.ev_a0) (Trace.events t) in
  Alcotest.(check (list int)) "earliest events kept" [ 1; 2; 3; 4 ] pages;
  Trace.clear t;
  Alcotest.(check int) "clear empties" 0 (Trace.length t);
  Alcotest.(check int) "clear resets drops" 0 (Trace.dropped t)

let test_clock_stamps_events () =
  let t = Trace.create_ring ~capacity:16 () in
  let now = ref 100 in
  Trace.set_clock t (fun () -> !now);
  Trace.pkru_write t ~value:0x55;
  now := 250;
  Trace.pkru_write t ~value:0xAA;
  (match Trace.events t with
  | [ e1; e2 ] ->
      Alcotest.(check int) "first stamp" 100 e1.Trace.ev_ts;
      Alcotest.(check int) "second stamp" 250 e2.Trace.ev_ts;
      Alcotest.(check string) "category" "pkru" e1.Trace.ev_cat;
      Alcotest.(check char) "instant phase" 'i' e1.Trace.ev_phase
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  Alcotest.(check int) "now reads the clock" 250 (Trace.now t)

let test_validate_rejects_unbalanced_spans () =
  let balanced = Trace.create_ring ~capacity:16 () in
  Trace.call_begin balanced ~sandbox:0;
  Trace.call_end balanced ~sandbox:0;
  check_valid "balanced" balanced;
  let unopened = Trace.create_ring ~capacity:16 () in
  Trace.call_end unopened ~sandbox:3;
  (match Trace.validate unopened with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "end without begin must not validate");
  let unclosed = Trace.create_ring ~capacity:16 () in
  Trace.call_begin unclosed ~sandbox:0;
  match Trace.validate unclosed with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dangling begin must not validate (nothing dropped)"

(* No event in the vocabulary legitimately self-nests, so a span opening
   inside an open span of the same name on the same track means two
   shards' streams collided on one track id. The validator must reject
   it even though the stream is balanced. *)
let test_validate_rejects_colliding_streams () =
  let r = Trace.create_ring ~capacity:16 () in
  Trace.request_begin r ~tenant:0;
  Trace.request_begin r ~tenant:0;
  Trace.request_end r ~tenant:0 ~ok:true;
  Trace.request_end r ~tenant:0 ~ok:true;
  (match Trace.validate r with
  | Ok () -> Alcotest.fail "colliding streams must not validate"
  | Error m ->
      Alcotest.(check bool) "names the duplicate span" true
        (let needle = "duplicate overlapping span" in
         let rec find i =
           i + String.length needle <= String.length m
           && (String.sub m i (String.length needle) = needle || find (i + 1))
         in
         find 0));
  (* The same spans on distinct tracks stay valid. *)
  let ok = Trace.create_ring ~capacity:16 () in
  Trace.request_begin ok ~tenant:0;
  Trace.request_begin ok ~tenant:1;
  Trace.request_end ok ~tenant:0 ~ok:true;
  Trace.request_end ok ~tenant:1 ~ok:true;
  check_valid "distinct tracks" ok

(* merge_shards: simulated-time interleave, per-shard track namespacing
   (so equal tenant ids from different shards can never collide), and
   identity on a single shard. *)
let test_merge_shards () =
  let clocked off =
    let r = Trace.create_ring ~capacity:64 () in
    let t = ref off in
    Trace.set_clock r (fun () -> !t);
    (r, t)
  in
  let r0, t0 = clocked 10 in
  Trace.request_begin r0 ~tenant:0;
  t0 := 15;
  Trace.pkru_write r0 ~value:3;
  t0 := 20;
  Trace.request_end r0 ~tenant:0 ~ok:true;
  let r1, t1 = clocked 5 in
  Trace.request_begin r1 ~tenant:1;
  t1 := 6;
  Trace.pkru_write r1 ~value:7;
  t1 := 25;
  Trace.request_end r1 ~tenant:1 ~ok:true;
  let merged = Trace.merge_shards [ r0; r1 ] in
  Alcotest.(check int) "all events retained" 6 (Trace.length merged);
  let evs = Trace.events merged in
  Alcotest.(check (list int)) "interleaved by simulated time"
    [ 5; 6; 10; 15; 20; 25 ]
    (List.map (fun e -> e.Trace.ev_ts) evs);
  (* widest shard has tenant track 1, so the stride is 2: shard 0 keeps
     tenant 0 on track 0, shard 1's tenant 1 lands on 1*2+1 = 3, and the
     machine tracks become -1 and -2. *)
  Alcotest.(check (list int)) "tracks namespaced per shard"
    [ 3; -2; 0; -1; 0; 3 ]
    (List.map (fun e -> e.Trace.ev_track) evs);
  check_valid "merged stream" merged;
  (* A single-shard merge is the identity: same fingerprint, no remap. *)
  Alcotest.(check int64) "one-shard merge is the identity"
    (Trace.fingerprint r0)
    (Trace.fingerprint (Trace.merge_shards [ r0 ]));
  Alcotest.(check int) "drop counts are summed" 0 (Trace.dropped merged)

(* End-to-end: a traced engine run must produce the four headline
   categories on the right tracks, validate structurally, and export
   schema-clean Chrome JSON — on both machine engines. *)
let check_engine_run_categories_and_export engine =
  let eng = Runtime.create_engine ~engine (Lazy.force traced_compiled) in
  let ring = Trace.create_ring () in
  Runtime.set_trace eng ring;
  let inst = Runtime.instantiate eng in
  (* A fuel-starved probe on a second slot exercises fault + kill. *)
  let probe = Runtime.instantiate eng in
  (match Runtime.invoke_protected ~fuel:8 probe "touch" [ 4096L ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "probe should not complete on 8 fuel");
  Alcotest.(check int64) "traced run result" (expect_ok (Runtime.invoke inst "touch" [ 64L ]))
    (Int64.of_int (64 * 63 / 2));
  check_valid "engine stream" ring;
  let cats = Trace.categories ring in
  List.iter
    (fun c ->
      if not (List.mem c cats) then Alcotest.failf "category %s missing (have: %s)" c (String.concat ", " cats))
    [ "transition"; "lifecycle"; "fault"; "tlb" ];
  (* Both sandbox tracks and the machine track are populated. *)
  let on_track id = List.exists (fun e -> e.Trace.ev_track = id) (Trace.events ring) in
  Alcotest.(check bool) "machine track" true (on_track (-1));
  Alcotest.(check bool) "slot 0 track" true (on_track (Runtime.instance_id inst));
  Alcotest.(check bool) "slot 1 track" true (on_track (Runtime.instance_id probe));
  let json = Trace.to_chrome_json ~process_name:"test" ring in
  match Trace.validate_chrome_json json with
  | Error m -> Alcotest.failf "chrome json rejected: %s" m
  | Ok r ->
      Alcotest.(check int) "every retained event exported" (Trace.length ring) r.Trace.json_events;
      List.iter
        (fun c ->
          if not (List.mem c r.Trace.json_cats) then Alcotest.failf "category %s missing from json" c)
        [ "transition"; "lifecycle"; "fault"; "tlb" ]

let test_engine_run_categories_and_export () =
  List.iter check_engine_run_categories_and_export
    [ Machine.Compiled; Machine.Reference ]

(* Observational neutrality: the same program on the same engine config
   must retire the same instructions and cycles whether it runs under
   the null sink, a ring sink, or the armed profiler. *)
let counters_after ?(profile = false) trace =
  let eng = Runtime.create_engine (Lazy.force traced_compiled) in
  Runtime.set_trace eng trace;
  if profile then Machine.arm_profiler ~interval:16 (Runtime.machine eng);
  let inst = Runtime.instantiate eng in
  ignore (expect_ok (Runtime.invoke inst "touch" [ 200L ]));
  let c = Machine.counters (Runtime.machine eng) in
  ((c.Machine.instructions, c.Machine.cycles), (c.Machine.loads, c.Machine.stores))

let counters_t = Alcotest.(pair (pair int int) (pair int int))

let test_tracing_is_observationally_neutral () =
  let base = counters_after Trace.null in
  Alcotest.check counters_t "ring sink" base (counters_after (Trace.create_ring ()));
  Alcotest.check counters_t "armed profiler" base
    (counters_after ~profile:true (Trace.create_ring ()))

let test_hostcall_classes_summarized () =
  let b = create ~memory_pages:1 () in
  let p = import b "p" ~params:[ W.I32 ] ~results:[ W.I32 ] in
  let r = import b "r" ~params:[ W.I32 ] ~results:[ W.I32 ] in
  let f = import b "f" ~params:[ W.I32 ] ~results:[ W.I32 ] in
  let go = declare b "go" ~params:[] ~results:[ W.I32 ] () in
  define b go [ i32 1; call p; call r; call f ];
  let eng = Runtime.create_engine (Codegen.compile (Codegen.default_config ()) (build b)) in
  let bump = fun _ args -> Int64.add args.(0) 1L in
  Runtime.register_import ~clazz:Runtime.Pure eng "p" bump;
  Runtime.register_import ~clazz:Runtime.Readonly eng "r" bump;
  Runtime.register_import ~clazz:Runtime.Full eng "f" bump;
  let ring = Trace.create_ring () in
  Runtime.set_trace eng ring;
  let inst = Runtime.instantiate eng in
  Alcotest.(check int64) "result" 4L (expect_ok (Runtime.invoke inst "go" []));
  check_valid "hostcall stream" ring;
  let sums = Trace.summaries ring in
  List.iter
    (fun name ->
      match List.assoc_opt name sums with
      | Some s ->
          Alcotest.(check int) (name ^ " count") 1 s.Trace.s_count;
          Alcotest.(check bool) (name ^ " cost positive") true (s.Trace.s_total > 0.0)
      | None -> Alcotest.failf "no summary for %s" name)
    [ "hostcall.pure"; "hostcall.readonly"; "hostcall.full" ];
  (* The call span wraps the whole invoke. *)
  match List.assoc_opt "call" sums with
  | Some s -> Alcotest.(check int) "one call span" 1 s.Trace.s_count
  | None -> Alcotest.fail "no call summary"

let test_profiler_attributes_hot_loop () =
  let eng = Runtime.create_engine (Lazy.force traced_compiled) in
  let m = Runtime.machine eng in
  Machine.arm_profiler ~interval:16 m;
  let inst = Runtime.instantiate eng in
  ignore (expect_ok (Runtime.invoke inst "touch" [ 500L ]));
  let samples = Machine.profile_samples m in
  Alcotest.(check bool) "samples collected" true (samples > 0);
  let regions = Machine.hot_regions m in
  Alcotest.(check bool) "regions attributed" true (regions <> []);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 regions in
  Alcotest.(check int) "every sample attributed" samples total;
  (* The store/load loop dominates: its region must hold most samples. *)
  let _, top = List.hd regions in
  Alcotest.(check bool) "hot loop dominates" true (float_of_int top > 0.5 *. float_of_int samples);
  Machine.disarm_profiler m;
  ignore (expect_ok (Runtime.invoke inst "touch" [ 500L ]));
  Alcotest.(check int) "disarmed: no new samples" samples (Machine.profile_samples m)

let test_prometheus_format () =
  let text =
    Trace.prometheus
      [
        ("sfi_cycles_total", "Simulated cycles", 1234.0);
        ("sfi_ratio", "A ratio", 0.5);
        ("sfi_demo", "a back\\slash\nand newline", 1.0);
        ("sfi_demo", "a back\\slash\nand newline", 2.0);
      ]
  in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "help line" true (has "# HELP sfi_cycles_total Simulated cycles");
  Alcotest.(check bool) "type line" true (has "# TYPE sfi_cycles_total gauge");
  Alcotest.(check bool) "sample line" true (has "sfi_cycles_total 1234");
  Alcotest.(check bool) "second metric" true (has "# TYPE sfi_ratio gauge");
  Alcotest.(check bool) "help backslash and newline escaped" true
    (has "# HELP sfi_demo a back\\\\slash\\nand newline\n");
  let count_sub sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length text then acc
      else go (i + 1) (acc + if String.sub text i n = sub then 1 else 0)
    in
    go 0 0
  in
  Alcotest.(check int) "single HELP for a shared metric name" 1 (count_sub "# HELP sfi_demo");
  Alcotest.(check int) "single TYPE for a shared metric name" 1 (count_sub "# TYPE sfi_demo");
  Alcotest.(check int) "both samples of the shared name" 2 (count_sub "\nsfi_demo ")

let test_sim_tenant_breakdown () =
  let ring = Trace.create_ring () in
  let cfg =
    {
      (Sim.default_config ()) with
      Sim.concurrency = 8;
      duration_ns = 4e6;
      io_mean_ns = 100_000.0;
      trace = ring;
    }
  in
  let res = Sim.run cfg in
  Alcotest.(check int) "one stat per tenant" 8 (Array.length res.Sim.tenants);
  Alcotest.(check bool) "work happened" true (res.Sim.completed > 0);
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 res.Sim.tenants in
  Alcotest.(check int) "completions attributed" res.Sim.completed (sum (fun t -> t.Sim.t_completed));
  Alcotest.(check int)
    "failures attributed"
    (res.Sim.failed + res.Sim.collateral_aborts)
    (sum (fun t -> t.Sim.t_failed));
  Array.iter
    (fun t ->
      if t.Sim.t_completed > 0 then begin
        Alcotest.(check bool) "p50 positive" true (t.Sim.t_p50_ns > 0.0);
        Alcotest.(check bool) "percentiles ordered" true
          (t.Sim.t_p50_ns <= t.Sim.t_p95_ns && t.Sim.t_p95_ns <= t.Sim.t_p99_ns)
      end)
    res.Sim.tenants;
  (* Request spans balance: the sim closes spans still open at the end. *)
  check_valid "sim stream" ring;
  let begins, ends =
    List.fold_left
      (fun (b, e) ev ->
        if ev.Trace.ev_name = "request" then
          match ev.Trace.ev_phase with 'B' -> (b + 1, e) | 'E' -> (b, e + 1) | _ -> (b, e)
        else (b, e))
      (0, 0) (Trace.events ring)
  in
  Alcotest.(check bool) "request spans recorded" true (begins > 0);
  if Trace.dropped ring = 0 then Alcotest.(check int) "request spans balance" begins ends

let tests =
  [
    Harness.case "null sink is inert" test_null_sink_inert;
    Harness.case "ring keeps first events, counts drops" test_ring_keeps_first_and_counts_drops;
    Harness.case "clock stamps events" test_clock_stamps_events;
    Harness.case "validate rejects unbalanced spans" test_validate_rejects_unbalanced_spans;
    Harness.case "validate rejects colliding streams" test_validate_rejects_colliding_streams;
    Harness.case "merge_shards namespaces and interleaves" test_merge_shards;
    Harness.case "engine run: categories, tracks, chrome json" test_engine_run_categories_and_export;
    Harness.case "tracing is observationally neutral" test_tracing_is_observationally_neutral;
    Harness.case "hostcall classes summarized" test_hostcall_classes_summarized;
    Harness.case "profiler attributes the hot loop" test_profiler_attributes_hot_loop;
    Harness.case "prometheus exposition format" test_prometheus_format;
    Harness.case "sim per-tenant breakdown" test_sim_tenant_breakdown;
  ]
