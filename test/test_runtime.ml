(* Tests for the engine: instance lifecycle, memory growth, epochs,
   transitions, and — most importantly — the ColorGuard isolation property:
   with striped slots, an out-of-bounds access that lands in a neighbour's
   memory must trap via MPK exactly as a guard region would (§3.2). *)

module W = Sfi_wasm.Ast
module X = Sfi_x86.Ast
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Pool = Sfi_core.Pool
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine
module Units = Sfi_util.Units
module Space = Sfi_vmem.Space
open Sfi_wasm.Builder

let touch_module () =
  let b = create ~memory_pages:2 ~max_memory_pages:64 () in
  let load = declare b "load" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b load [ get 0; load32 () ];
  let store = declare b "store" ~params:[ W.I32; W.I32 ] ~results:[] () in
  define b store [ get 0; get 1; store32 () ];
  let grow = declare b "grow" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b grow [ get 0; memory_grow ];
  let size = declare b "size" ~params:[] ~results:[ W.I32 ] () in
  define b size [ memory_size ];
  let spin = declare b "spin" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b spin ~locals:[ W.I32; W.I32 ]
    (for_loop ~i:1 ~start:[ i32 0 ] ~stop:[ get 0 ]
       [ get 2; get 1; add; set 2 ]
    @ [ get 2 ]);
  build b

let small_pool ~stripe =
  let params =
    {
      Pool.num_slots = 8;
      max_memory_bytes = 4 * Units.mib;
      expected_slot_bytes = 4 * Units.mib;
      guard_bytes = 16 * Units.mib;
      pre_guard_enabled = false;
      num_pkeys_available = 15;
      stripe_enabled = stripe;
    }
  in
  match Pool.compute params with Ok l -> l | Error m -> failwith m

let engine ?allocator ?(colorguard = false) ?(strategy = Strategy.wasm_default) () =
  let cfg = { (Codegen.default_config ~strategy ()) with Codegen.colorguard } in
  Runtime.create_engine ?allocator (Codegen.compile cfg (touch_module ()))

let expect_ok = function
  | Ok v -> v
  | Error k -> Alcotest.failf "unexpected trap: %s" (X.trap_name k)

let test_lifecycle_and_recycling () =
  let e = engine () in
  let i1 = Runtime.instantiate e in
  Alcotest.(check int) "slot 0 first" 0 (Runtime.instance_id i1);
  ignore (expect_ok (Runtime.invoke i1 "store" [ 16L; 1234L ]));
  Alcotest.(check int64) "written" 1234L (expect_ok (Runtime.invoke i1 "load" [ 16L ]));
  let i2 = Runtime.instantiate e in
  Alcotest.(check int) "slot 1 next" 1 (Runtime.instance_id i2);
  Alcotest.(check bool) "separate heaps" true (Runtime.heap_base i1 <> Runtime.heap_base i2);
  Alcotest.(check int64) "i2 unaffected" 0L (expect_ok (Runtime.invoke i2 "load" [ 16L ]));
  Runtime.release i1;
  let i3 = Runtime.instantiate e in
  Alcotest.(check int) "slot recycled" 0 (Runtime.instance_id i3);
  (* Wasmtime zeroes recycled slots with madvise. *)
  Alcotest.(check int64) "recycled memory zeroed" 0L (expect_ok (Runtime.invoke i3 "load" [ 16L ]))

let test_memory_grow () =
  let e = engine () in
  let i = Runtime.instantiate e in
  Alcotest.(check int64) "initial size" 2L (expect_ok (Runtime.invoke i "size" []));
  Alcotest.(check int64) "grow returns old size" 2L (expect_ok (Runtime.invoke i "grow" [ 3L ]));
  Alcotest.(check int64) "size updated" 5L (expect_ok (Runtime.invoke i "size" []));
  Alcotest.(check int) "runtime view agrees" 5 (Runtime.memory_pages i);
  (* The grown page is usable... *)
  ignore (expect_ok (Runtime.invoke i "store" [ Int64.of_int ((4 * 65536) + 8); 7L ]));
  (* ...but past the bound still traps. *)
  (match Runtime.invoke i "load" [ Int64.of_int (5 * 65536) ] with
  | Error X.Trap_out_of_bounds -> ()
  | _ -> Alcotest.fail "expected oob after growth limit");
  (* Growing past the declared max fails with -1. *)
  Alcotest.(check int64) "grow beyond max" 0xFFFFFFFFL
    (expect_ok (Runtime.invoke i "grow" [ 1000L ]))

let test_read_write_memory () =
  let e = engine () in
  let i = Runtime.instantiate e in
  Runtime.write_memory i ~addr:100 "payload";
  Alcotest.(check string) "host read back" "payload" (Runtime.read_memory i ~addr:100 ~len:7);
  Alcotest.(check int64) "sandbox sees host writes" (Int64.of_int (Char.code 'p'))
    (Int64.logand (expect_ok (Runtime.invoke i "load" [ 100L ])) 0xFFL)

let test_colorguard_isolation () =
  (* Striped pool without the 16 MiB of guard between slots: slot 1's
     memory begins within slot 0's 4 GiB index range. An OOB access from
     slot 0 that lands exactly on slot 1's memory must trap via MPK. *)
  let layout = small_pool ~stripe:true in
  Alcotest.(check bool) "slots are adjacent (no interior guards)" true
    (layout.Pool.slot_bytes < 8 * Units.mib + 1);
  let e = engine ~allocator:(Runtime.Pool layout) ~colorguard:true () in
  let i0 = Runtime.instantiate e in
  let i1 = Runtime.instantiate e in
  Alcotest.(check bool) "distinct colors" true (Runtime.color i0 <> Runtime.color i1);
  (* Put a secret in i1 at offset 64. *)
  ignore (expect_ok (Runtime.invoke i1 "store" [ 64L; 0x5EC2E7L ]));
  let delta = Runtime.heap_base i1 - Runtime.heap_base i0 in
  Alcotest.(check bool) "within 32-bit index range" true (delta > 0 && delta + 64 < 0x1_0000_0000);
  (* In-bounds access from i0 still works... *)
  ignore (expect_ok (Runtime.invoke i0 "load" [ 0L ]));
  (* ...but reaching into i1's pages traps on the color mismatch. *)
  (match Runtime.invoke i0 "load" [ Int64.of_int (delta + 64) ] with
  | Error X.Trap_out_of_bounds -> ()
  | Ok v -> Alcotest.failf "ISOLATION BREACH: read neighbour's %Ld" v
  | Error k -> Alcotest.failf "wrong trap: %s" (X.trap_name k));
  (match Runtime.invoke i0 "store" [ Int64.of_int (delta + 64); 0L ] with
  | Error X.Trap_out_of_bounds -> ()
  | Ok _ -> Alcotest.fail "ISOLATION BREACH: wrote neighbour's memory"
  | Error k -> Alcotest.failf "wrong trap: %s" (X.trap_name k));
  (* And the secret is intact. *)
  Alcotest.(check int64) "secret intact" 0x5EC2E7L
    (expect_ok (Runtime.invoke i1 "load" [ 64L ]))

let test_colorguard_same_color_distance () =
  (* Two same-colored slots are a full stripe period apart, beyond the
     33-bit reach of any sandboxed access. *)
  let layout = small_pool ~stripe:true in
  let stripes = layout.Pool.num_stripes in
  Alcotest.(check bool) "multiple stripes" true (stripes > 1);
  Alcotest.(check bool) "same-color distance exceeds reach" true
    (Pool.bytes_to_next_stripe_slot layout >= (4 * Units.mib) + (16 * Units.mib))

let test_epochs () =
  let e = engine () in
  let i = Runtime.instantiate e in
  let act = Runtime.start_call i "spin" [ 200000L ] in
  let steps = ref 0 in
  let rec drive () =
    incr steps;
    if !steps > 10000 then Alcotest.fail "never finished"
    else
      match Runtime.step act ~fuel:10_000 with
      | `More -> drive ()
      | `Done v -> v
      | `Trapped k -> Alcotest.failf "trapped: %s" (X.trap_name k)
      | `Fault f -> Alcotest.failf "fault: %s" (Runtime.fault_name f)
  in
  let v = drive () in
  Alcotest.(check bool) "preempted at least a few times" true (!steps > 3);
  (* sum 0..199999 mod 2^32 *)
  let expected = Int64.logand (Int64.of_int (200000 * 199999 / 2)) 0xFFFFFFFFL in
  Alcotest.(check int64) "result across epochs" expected (Int64.logand v 0xFFFFFFFFL)

let test_interleaved_activations () =
  (* Two instances progress in alternating epochs over one machine: the
     user-level context switching of §2. *)
  let e = engine () in
  let i1 = Runtime.instantiate e in
  let i2 = Runtime.instantiate e in
  let a1 = Runtime.start_call i1 "spin" [ 50000L ] in
  let a2 = Runtime.start_call i2 "spin" [ 60000L ] in
  let r1 = ref None and r2 = ref None in
  let guard = ref 0 in
  while (!r1 = None || !r2 = None) && !guard < 10000 do
    incr guard;
    (if !r1 = None then
       match Runtime.step a1 ~fuel:5000 with `Done v -> r1 := Some v | _ -> ());
    if !r2 = None then
      match Runtime.step a2 ~fuel:5000 with `Done v -> r2 := Some v | _ -> ()
  done;
  let low32 v = Int64.logand v 0xFFFFFFFFL in
  Alcotest.(check (option int64)) "first result"
    (Some (low32 (Int64.of_int (50000 * 49999 / 2))))
    (Option.map low32 !r1);
  Alcotest.(check (option int64)) "second result"
    (Some (low32 (Int64.of_int (60000 * 59999 / 2))))
    (Option.map low32 !r2)

(* --- lazy activation contexts ---

   The machine holds one unfinished activation's state at a time and
   saves it only when another call or activation takes the machine. Each
   sequence below mixes activations and calls on one engine; every result
   and every retired-instruction count must equal the same work run
   alone on a fresh engine. *)

(* [f ()] and the instructions the engine's machine retired during it. *)
let retiring e f =
  let m = Runtime.machine e in
  let i0 = Machine.instructions m in
  let r = f () in
  (r, Machine.instructions m - i0)

(* Step [act] to its end in [fuel]-sized epochs: its result and the
   instructions its steps retired, [spent] included. *)
let rec finish_act ?(spent = 0) e act ~fuel =
  match retiring e (fun () -> Runtime.step act ~fuel) with
  | `More, n -> finish_act ~spent:(spent + n) e act ~fuel
  | `Done v, n -> (v, spent + n)
  | `Trapped k, _ -> Alcotest.failf "trapped: %s" (X.trap_name k)
  | `Fault f, _ -> Alcotest.failf "fault: %s" (Runtime.fault_name f)

(* [spin n] started and stepped alone on a fresh engine. *)
let spin_alone n =
  let e = engine () in
  let act = Runtime.start_call (Runtime.instantiate e) "spin" [ Int64.of_int n ] in
  finish_act e act ~fuel:5000

let invoke_alone n =
  let e = engine () in
  let i = Runtime.instantiate e in
  retiring e (fun () -> expect_ok (Runtime.invoke i "spin" [ Int64.of_int n ]))

let same_as_alone what (v, n) (v', n') =
  Alcotest.(check int64) (what ^ ": result") v' v;
  Alcotest.(check int) (what ^ ": instructions") n' n

let test_lazy_context_invoke_between_steps () =
  (* start A, step A -> More, invoke B on the same engine, then finish A. *)
  let e = engine () in
  let ia = Runtime.instantiate e and ib = Runtime.instantiate e in
  let a = Runtime.start_call ia "spin" [ 40_000L ] in
  let first, n1 = retiring e (fun () -> Runtime.step a ~fuel:5000) in
  Alcotest.(check bool) "A preempted" true (first = `More);
  same_as_alone "invoke B"
    (retiring e (fun () -> expect_ok (Runtime.invoke ib "spin" [ 3_000L ])))
    (invoke_alone 3_000);
  same_as_alone "A" (finish_act ~spent:n1 e a ~fuel:5000) (spin_alone 40_000);
  (* The same on A's own instance. *)
  let a = Runtime.start_call ia "spin" [ 40_000L ] in
  let _, n1 = retiring e (fun () -> Runtime.step a ~fuel:5000) in
  same_as_alone "invoke on A's instance"
    (retiring e (fun () -> expect_ok (Runtime.invoke ia "spin" [ 3_000L ])))
    (invoke_alone 3_000);
  same_as_alone "A after" (finish_act ~spent:n1 e a ~fuel:5000) (spin_alone 40_000)

let test_lazy_context_start_while_resident () =
  (* start B while A is resident (never stepped, and stepped once), then
     run both to the end in either order and interleaved. *)
  let e = engine () in
  let ia = Runtime.instantiate e and ib = Runtime.instantiate e in
  let a = Runtime.start_call ia "spin" [ 30_000L ] in
  let b = Runtime.start_call ib "spin" [ 20_000L ] in
  same_as_alone "B" (finish_act e b ~fuel:5000) (spin_alone 20_000);
  same_as_alone "A, never stepped before B" (finish_act e a ~fuel:5000) (spin_alone 30_000);
  let a = Runtime.start_call ia "spin" [ 30_000L ] in
  let _, na = retiring e (fun () -> Runtime.step a ~fuel:5000) in
  let b = Runtime.start_call ib "spin" [ 20_000L ] in
  let _, nb = retiring e (fun () -> Runtime.step b ~fuel:5000) in
  same_as_alone "A, interleaved" (finish_act ~spent:na e a ~fuel:7000) (spin_alone 30_000);
  same_as_alone "B, interleaved" (finish_act ~spent:nb e b ~fuel:3000) (spin_alone 20_000)

let test_lazy_context_after_watchdog () =
  (* A watchdog kill of the resident activation, then a new start_call. *)
  let e = engine () in
  let ia = Runtime.instantiate e in
  let a = Runtime.start_call ~deadline_fuel:20_000 ia "spin" [ 1_000_000_000L ] in
  let rec drive n =
    if n > 100 then Alcotest.fail "watchdog never fired"
    else
      match Runtime.step a ~fuel:5000 with
      | `More -> drive (n + 1)
      | `Fault Runtime.Fuel_exhausted -> ()
      | _ -> Alcotest.fail "runaway loop ended another way"
  in
  drive 0;
  Alcotest.check_raises "a killed activation is finished"
    (Invalid_argument "Runtime.step: activation already finished") (fun () ->
      ignore (Runtime.step a ~fuel:5000));
  let c = Runtime.start_call (Runtime.instantiate e) "spin" [ 25_000L ] in
  same_as_alone "C after the kill" (finish_act e c ~fuel:5000) (spin_alone 25_000)

let test_lazy_context_step_after_teardown () =
  (* A step after the resident instance was killed or released reports
     the dead instance; the engine keeps serving, whether the next call
     starts before or after that step. *)
  List.iter
    (fun (what, teardown, step_first) ->
      let e = engine () in
      let ia = Runtime.instantiate e in
      let a = Runtime.start_call ia "spin" [ 30_000L ] in
      ignore (Runtime.step a ~fuel:5000);
      teardown ia;
      let dead () =
        match Runtime.step a ~fuel:5000 with
        | `Fault Runtime.Instance_dead -> ()
        | _ -> Alcotest.failf "%s: stepping a torn-down activation" what
      in
      if step_first then dead ();
      let b = Runtime.start_call (Runtime.instantiate e) "spin" [ 25_000L ] in
      if not step_first then dead ();
      same_as_alone (what ^ ": next activation") (finish_act e b ~fuel:5000)
        (spin_alone 25_000))
    [
      ("killed", Runtime.kill, true);
      ("killed, next started first", Runtime.kill, false);
      ("released", Runtime.release, true);
      ("released, next started first", Runtime.release, false);
    ]

let test_transition_accounting () =
  let e = engine () in
  let i = Runtime.instantiate e in
  Runtime.reset_metrics e;
  ignore (expect_ok (Runtime.invoke i "size" []));
  Alcotest.(check int) "an invocation is two transitions" 2 (Runtime.transitions e);
  Alcotest.(check bool) "time advanced" true (Runtime.elapsed_ns e > 0.0)

let test_colorguard_transition_cost () =
  let plain = engine () in
  let cg = engine ~allocator:(Runtime.Pool (small_pool ~stripe:true)) ~colorguard:true () in
  let cost e =
    let i = Runtime.instantiate e in
    ignore (expect_ok (Runtime.invoke i "size" []));
    Runtime.reset_metrics e;
    for _ = 1 to 100 do
      ignore (expect_ok (Runtime.invoke i "size" []))
    done;
    Runtime.elapsed_ns e /. float_of_int (Runtime.transitions e)
  in
  let base = cost plain and with_cg = cost cg in
  (* ~40 cycles = ~18 ns at 2.2 GHz per direction (§6.4.1). *)
  Alcotest.(check bool) "pkru switch adds 15-25 ns per transition" true
    (with_cg -. base > 15.0 && with_cg -. base < 25.0)

let test_pool_exhaustion () =
  let e = engine ~allocator:(Runtime.Pool (small_pool ~stripe:false)) () in
  let instances = List.init 8 (fun _ -> Runtime.instantiate e) in
  (try
     ignore (Runtime.instantiate e);
     Alcotest.fail "pool should be exhausted"
   with Runtime.Fault Runtime.Pool_exhausted -> ());
  (match Runtime.try_instantiate e with
  | Error Runtime.Pool_exhausted -> ()
  | _ -> Alcotest.fail "try_instantiate should report pool exhaustion");
  Runtime.release (List.hd instances);
  ignore (Runtime.instantiate e)

let test_fault_recovery () =
  (* A trap under [invoke_protected] kills the instance, recycles the slot,
     and the engine keeps serving — no host exception. *)
  let e = engine ~allocator:(Runtime.Pool (small_pool ~stripe:true)) ~colorguard:true () in
  let victim = Runtime.instantiate e in
  let bad = Runtime.instantiate e in
  ignore (expect_ok (Runtime.invoke victim "store" [ 8L; 77L ]));
  let bad_slot = Runtime.instance_id bad in
  (match Runtime.invoke_protected bad "load" [ Int64.of_int (64 * Units.mib) ] with
  | Error (Runtime.Trap X.Trap_out_of_bounds) -> ()
  | Ok v -> Alcotest.failf "oob load returned %Ld" v
  | Error f -> Alcotest.failf "wrong fault: %s" (Runtime.fault_name f));
  Alcotest.(check bool) "faulting instance is dead" false (Runtime.live bad);
  (match Runtime.invoke_protected bad "load" [ 0L ] with
  | Error Runtime.Instance_dead -> ()
  | _ -> Alcotest.fail "dead instance should report Instance_dead");
  (* The survivor is untouched and the engine still serves. *)
  Alcotest.(check int64) "survivor memory intact" 77L
    (expect_ok (Runtime.invoke victim "load" [ 8L ]));
  let fresh = Runtime.instantiate e in
  Alcotest.(check int) "killed slot recycled" bad_slot (Runtime.instance_id fresh);
  Alcotest.(check int64) "recycled slot zeroed" 0L
    (expect_ok (Runtime.invoke fresh "load" [ 0L ]))

let test_watchdog_deadline () =
  (* A runaway activation is killed once it overruns its fuel deadline. *)
  let e = engine () in
  let i = Runtime.instantiate e in
  let act = Runtime.start_call ~deadline_fuel:30_000 i "spin" [ 1_000_000_000L ] in
  let rec drive n =
    if n > 100 then Alcotest.fail "watchdog never fired"
    else
      match Runtime.step act ~fuel:10_000 with
      | `More -> drive (n + 1)
      | `Fault Runtime.Fuel_exhausted -> n
      | `Done _ -> Alcotest.fail "runaway loop finished?"
      | `Trapped k -> Alcotest.failf "trapped: %s" (X.trap_name k)
      | `Fault f -> Alcotest.failf "wrong fault: %s" (Runtime.fault_name f)
  in
  let epochs = drive 1 in
  Alcotest.(check bool) "killed around the deadline" true (epochs >= 3 && epochs <= 5);
  Alcotest.(check bool) "instance killed by watchdog" false (Runtime.live i);
  (* A fresh instance on the recycled slot still works. *)
  let j = Runtime.instantiate e in
  Alcotest.(check int64) "engine keeps serving" 0L (expect_ok (Runtime.invoke j "load" [ 0L ]))

let test_invoke_fuel_fault () =
  let e = engine () in
  let i = Runtime.instantiate e in
  (try
     ignore (Runtime.invoke ~fuel:100 i "spin" [ 1_000_000L ]);
     Alcotest.fail "expected Fuel_exhausted"
   with Runtime.Fault Runtime.Fuel_exhausted -> ());
  (match Runtime.invoke_protected ~fuel:100 i "spin" [ 1_000_000L ] with
  | Error Runtime.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "invoke_protected should contain fuel exhaustion")

let test_retry_queue () =
  (* Pool full: tickets park in FIFO order, get slots as kills free them,
     and overflow beyond the queue capacity is shed. *)
  let e =
    Runtime.create_engine
      ~allocator:(Runtime.Pool (small_pool ~stripe:false))
      ~retry_queue_capacity:2
      (Codegen.compile (Codegen.default_config ()) (touch_module ()))
  in
  let instances = Array.init 8 (fun _ -> Runtime.instantiate e) in
  (match Runtime.instantiate_queued e ~ticket:100 with
  | `Wait -> ()
  | _ -> Alcotest.fail "ticket 100 should wait");
  (match Runtime.instantiate_queued e ~ticket:101 with
  | `Wait -> ()
  | _ -> Alcotest.fail "ticket 101 should wait");
  (match Runtime.instantiate_queued e ~ticket:102 with
  | `Rejected -> ()
  | _ -> Alcotest.fail "queue full: ticket 102 should be rejected");
  Alcotest.(check int) "two waiters" 2 (Runtime.waiting e);
  Runtime.kill instances.(3);
  (* The freed slot goes to the queue head, not a line-jumper. *)
  (match Runtime.instantiate_queued e ~ticket:101 with
  | `Wait -> ()
  | _ -> Alcotest.fail "ticket 101 must not jump the queue");
  (match Runtime.instantiate_queued e ~ticket:100 with
  | `Ready inst -> Alcotest.(check int) "head got the killed slot" 3 (Runtime.instance_id inst)
  | _ -> Alcotest.fail "queue head should get the freed slot");
  Runtime.kill instances.(5);
  (match Runtime.instantiate_queued e ~ticket:101 with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "next waiter should get the next slot");
  Alcotest.(check int) "queue drained" 0 (Runtime.waiting e)

let test_fault_attribution () =
  (* The faulting address from the machine attributes to the right slot. *)
  let layout = small_pool ~stripe:true in
  let e = engine ~allocator:(Runtime.Pool layout) ~colorguard:true () in
  let i0 = Runtime.instantiate e in
  let i1 = Runtime.instantiate e in
  let delta = Runtime.heap_base i1 - Runtime.heap_base i0 in
  (match Runtime.invoke_protected i0 "load" [ Int64.of_int (delta + 64) ] with
  | Error (Runtime.Trap X.Trap_out_of_bounds) -> ()
  | _ -> Alcotest.fail "expected mpk trap");
  (match Runtime.last_fault_info e with
  | None -> Alcotest.fail "no fault metadata recorded"
  | Some { Machine.fault_addr; fault_write } ->
      Alcotest.(check bool) "a read fault" false fault_write;
      Alcotest.(check int) "faulting address is i1's heap + 64"
        (Runtime.heap_base i1 + 64) fault_addr;
      (match Runtime.attribute_address e fault_addr with
      | `Slot s -> Alcotest.(check int) "attributed to the neighbour slot" 1 s
      | `Guard _ | `Host -> Alcotest.fail "should attribute to a slot"))

let test_import_dispatch () =
  let b = create ~memory_pages:1 () in
  let log = import b "observe" ~params:[ W.I32; W.I32; W.I32 ] ~results:[ W.I32 ] in
  let f = declare b "f" ~params:[] ~results:[ W.I32 ] () in
  define b f [ i32 10; i32 20; i32 30; call log ];
  let m = build b in
  let e = Runtime.create_engine (Codegen.compile (Codegen.default_config ()) m) in
  let seen = ref [] in
  Runtime.register_import e "observe" (fun _ args ->
      seen := Array.to_list args;
      99L);
  let i = Runtime.instantiate e in
  Alcotest.(check int64) "import result" 99L (expect_ok (Runtime.invoke i "f" []));
  Alcotest.(check (list int64)) "arguments in order" [ 10L; 20L; 30L ] !seen

(* §4.1: Wasm2c sets the segment base on entry from outside the module;
   intra-module calls use the path that elides the reset. One invocation of
   an export that makes many internal calls must execute exactly one
   wrgsbase. *)
let test_segment_base_once_per_entry () =
  let b = create ~memory_pages:1 () in
  let leaf = declare b "leaf" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b leaf [ get 0; i32 0; load32 (); add ];
  let run = declare b "run" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b run ~locals:[ W.I32; W.I32 ]
    (for_loop ~i:1 ~start:[ i32 0 ] ~stop:[ get 0 ]
       [ get 2; call leaf; set 2 ]
    @ [ get 2 ]);
  let m = build b in
  let cfg = Codegen.default_config ~strategy:Strategy.segue () in
  let e = Runtime.create_engine (Codegen.compile cfg m) in
  let i = Runtime.instantiate e in
  Runtime.reset_metrics e;
  (match Runtime.invoke i "run" [ 50L ] with
  | Ok _ -> ()
  | Error k -> Alcotest.failf "trap: %s" (X.trap_name k));
  let c = Machine.counters (Runtime.machine e) in
  Alcotest.(check int) "one wrgsbase per sandbox entry, none per internal call" 1
    c.Machine.seg_base_writes

(* The per-domain counters live in Domain.DLS, so they die with their
   worker domain: a parent reading [domain_metrics ()] after the join
   observes none of the child's work. Multi-domain harnesses must
   snapshot inside each worker and combine with [merged_metrics] — this
   is the per-domain metrics-lifetime bug the sharded sim exposed. *)
let test_domain_metrics_harvest () =
  Runtime.reset_domain_metrics ();
  let work () =
    Runtime.reset_domain_metrics ();
    let e = engine () in
    let i = Runtime.instantiate e in
    ignore (expect_ok (Runtime.invoke i "spin" [ 100L ]));
    Runtime.domain_metrics ()
  in
  let child = Domain.join (Domain.spawn work) in
  Alcotest.(check bool) "child harvested its own transitions" true
    (child.Runtime.m_transitions > 0);
  Alcotest.(check int) "child's DLS counters die with its domain" 0
    (Runtime.domain_metrics ()).Runtime.m_transitions;
  let parent = work () in
  let merged = Runtime.merged_metrics [ parent; child ] in
  Alcotest.(check int) "merged_metrics sees both domains"
    (parent.Runtime.m_transitions + child.Runtime.m_transitions)
    merged.Runtime.m_transitions;
  Alcotest.(check int) "warm+cold instantiations summed"
    (parent.Runtime.m_instantiations_cold + child.Runtime.m_instantiations_cold)
    merged.Runtime.m_instantiations_cold;
  Alcotest.(check bool) "zero_metrics is the identity" true
    (Runtime.merged_metrics [ Runtime.zero_metrics; merged ] = merged)

(* The vmctx image is written straight into its pages. It must hold the
   same pages and bytes as the zero-filled, page-rounded template that
   used to be copied into it. *)
let vmctx_template (m : W.module_) ~min_pages =
  let len =
    max 4096 (Units.align_up (Codegen.vmctx_globals + (8 * Array.length m.W.globals)) 4096)
  in
  let b = Bytes.make len '\000' in
  Bytes.set_int64_le b Codegen.vmctx_memory_bytes (Int64.of_int (min_pages * 65536));
  Bytes.set_int64_le b Codegen.vmctx_pkru_host (Int64.of_int Sfi_vmem.Mpk.allow_all);
  Array.iteri
    (fun i (g : W.global) ->
      Bytes.set_int64_le b (Codegen.vmctx_globals + (8 * i)) (Harness.value_bits g.W.ginit))
    m.W.globals;
  (len, Space.image_of_data [ (0, Bytes.to_string b) ])

let image_bytes img ~len =
  let space = Space.create () and base = 1 lsl 20 in
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  ok (Space.map space ~addr:base ~len ~prot:Sfi_vmem.Prot.r);
  ok (Space.set_backing space ~addr:base ~len img);
  Space.read_bytes space ~addr:base ~len

let test_vmctx_image_bytes () =
  let global i =
    if i mod 2 = 0 then { W.gtype = W.I32; gmutable = true; ginit = W.V_i32 (Int32.of_int (-i)) }
    else { W.gtype = W.I64; gmutable = false; ginit = W.V_i64 (Int64.of_int (i * -977)) }
  in
  let base = touch_module () in
  let modules =
    [
      (base, 0);
      (base, 3);
      ({ base with W.globals = Array.init 5 global }, 2);
      (* 600 globals reach the vmctx's second page. *)
      ({ base with W.globals = Array.init 600 global }, 1);
      ((Sfi_fuzz.Fuzz.generate 0x5EEDL).Sfi_fuzz.Fuzz.p_module, 1);
    ]
  in
  List.iteri
    (fun k (m, min_pages) ->
      let len, expected = vmctx_template m ~min_pages in
      let img = Sfi_runtime.Instance.bake_vmctx_image m ~min_pages in
      let name = Printf.sprintf "module %d" k in
      Alcotest.(check int) (name ^ ": pages") (Space.image_pages expected) (Space.image_pages img);
      (* One page past the template shows the image ends where it did. *)
      let len = len + Space.page_size in
      Alcotest.(check bool) (name ^ ": bytes") true
        (Bytes.equal (image_bytes expected ~len) (image_bytes img ~len)))
    modules

let tests =
  [
    Harness.case "lifecycle and recycling" test_lifecycle_and_recycling;
    Harness.case "memory grow" test_memory_grow;
    Harness.case "host memory access" test_read_write_memory;
    Harness.case "colorguard isolation" test_colorguard_isolation;
    Harness.case "same-color distance" test_colorguard_same_color_distance;
    Harness.case "epoch preemption" test_epochs;
    Harness.case "interleaved activations" test_interleaved_activations;
    Harness.case "lazy context: invoke between steps" test_lazy_context_invoke_between_steps;
    Harness.case "lazy context: start while resident" test_lazy_context_start_while_resident;
    Harness.case "lazy context: start after a watchdog kill" test_lazy_context_after_watchdog;
    Harness.case "lazy context: step after teardown" test_lazy_context_step_after_teardown;
    Harness.case "transition accounting" test_transition_accounting;
    Harness.case "colorguard transition cost" test_colorguard_transition_cost;
    Harness.case "pool exhaustion" test_pool_exhaustion;
    Harness.case "fault recovery" test_fault_recovery;
    Harness.case "watchdog deadline" test_watchdog_deadline;
    Harness.case "invoke fuel fault" test_invoke_fuel_fault;
    Harness.case "bounded retry queue" test_retry_queue;
    Harness.case "fault attribution" test_fault_attribution;
    Harness.case "import dispatch" test_import_dispatch;
    Harness.case "segment base once per entry (sec 4.1)" test_segment_base_once_per_entry;
    Harness.case "domain metrics harvest across domains" test_domain_metrics_harvest;
    Harness.case "vmctx image bytes match the copied template" test_vmctx_image_bytes;
  ]
