(* Instance-lifecycle tests: copy-on-write instantiation, dirty-page
   recycle, and classified transitions.

   The load-bearing property is the qcheck one: a slot that has been
   dirtied by an arbitrary tenant (stores, globals, memory.grow) and then
   recycled must be indistinguishable from a fresh instantiation on a
   fresh engine — heap bytes, data segments, globals, memory size, and
   behavior. The dirty-page accounting tests pin the cost side: recycling
   is O(pages the tenant actually touched), never O(heap). *)

module W = Sfi_wasm.Ast
module X = Sfi_x86.Ast
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Pool = Sfi_core.Pool
module Runtime = Sfi_runtime.Runtime
module Space = Sfi_vmem.Space
module Units = Sfi_util.Units
module Prng = Sfi_util.Prng
open Sfi_wasm.Builder

let os_page = Space.page_size
let wasm_page = 65536

(* A module with every kind of instance state the recycler must restore:
   a data segment (CoW image content), two mutable globals with nonzero
   initial values, and a growable memory. *)
let tenant_module () =
  let b = create ~memory_pages:2 ~max_memory_pages:8 () in
  let g0 = global b W.I32 (W.V_i32 7l) in
  let g1 = global b W.I64 (W.V_i64 0xABCDL) in
  data b ~offset:64 "lifecycle-image-bytes";
  let load = declare b "load" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b load [ get 0; load32 () ];
  let store = declare b "store" ~params:[ W.I32; W.I32 ] ~results:[] () in
  define b store [ get 0; get 1; store32 () ];
  let grow = declare b "grow" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b grow [ get 0; memory_grow ];
  let size = declare b "size" ~params:[] ~results:[ W.I32 ] () in
  define b size [ memory_size ];
  let bump = declare b "bump" ~params:[ W.I32 ] ~results:[ W.I32 ] () in
  define b bump [ gget g0; get 0; add; gset g0; gget g0 ];
  let glob1 = declare b "glob1" ~params:[] ~results:[ W.I64 ] () in
  define b glob1 [ gget g1 ];
  build b

let compiled = lazy (Codegen.compile (Codegen.default_config ()) (tenant_module ()))

let expect_ok = function
  | Ok v -> v
  | Error k -> Alcotest.failf "unexpected trap: %s" (X.trap_name k)

(* ------------------------------------------------------------------ *)
(* Recycled slot = fresh instantiate, under random dirty patterns.     *)
(* ------------------------------------------------------------------ *)

(* Dirty an instance the way an adversarial tenant would: host-side
   writes to random OS pages, sandbox stores, global mutation, and the
   occasional memory.grow. *)
let churn_instance rng inst =
  let writes = Prng.int rng 24 in
  for _ = 1 to writes do
    let page = Prng.int rng (2 * wasm_page / os_page) in
    let off = Prng.int rng (os_page - 8) in
    Runtime.write_memory inst ~addr:((page * os_page) + off)
      (String.init (Prng.int_in rng 1 8) (fun _ -> Char.chr (Prng.int rng 256)))
  done;
  if Prng.bool rng then
    ignore (expect_ok (Runtime.invoke inst "store" [ Int64.of_int (Prng.int rng 1000 * 4); 77L ]));
  if Prng.bool rng then ignore (expect_ok (Runtime.invoke inst "bump" [ 13L ]));
  if Prng.int rng 4 = 0 then
    ignore (expect_ok (Runtime.invoke inst "grow" [ Int64.of_int (Prng.int_in rng 1 3) ]))

let check_recycled_equals_fresh seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let churned_engine = Runtime.create_engine (Lazy.force compiled) in
  let victim = Runtime.instantiate churned_engine in
  churn_instance rng victim;
  if Prng.bool rng then Runtime.kill victim else Runtime.release victim;
  let recycled = Runtime.instantiate churned_engine in
  if Runtime.instance_id recycled <> Runtime.instance_id victim then
    QCheck.Test.fail_reportf "seed %d: slot not recycled" seed;
  let fresh_engine = Runtime.create_engine (Lazy.force compiled) in
  let fresh = Runtime.instantiate fresh_engine in
  if Runtime.memory_pages recycled <> Runtime.memory_pages fresh then
    QCheck.Test.fail_reportf "seed %d: memory_pages %d vs fresh %d" seed
      (Runtime.memory_pages recycled) (Runtime.memory_pages fresh);
  let len = 2 * wasm_page in
  if
    not
      (String.equal
         (Runtime.read_memory recycled ~addr:0 ~len)
         (Runtime.read_memory fresh ~addr:0 ~len))
  then QCheck.Test.fail_reportf "seed %d: recycled heap differs from fresh" seed;
  for g = 0 to 1 do
    if Runtime.read_global recycled g <> Runtime.read_global fresh g then
      QCheck.Test.fail_reportf "seed %d: global %d: %Ld vs fresh %Ld" seed g
        (Runtime.read_global recycled g) (Runtime.read_global fresh g)
  done;
  (* Both are slot 0 of their engine, so the raw vmctx pages (memory
     bound, PKRU images, globals, stack limit) must be byte-identical. *)
  let vmctx eng inst =
    Bytes.to_string
      (Space.read_bytes (Runtime.space eng) ~addr:(Runtime.vmctx_addr inst) ~len:4096)
  in
  if not (String.equal (vmctx churned_engine recycled) (vmctx fresh_engine fresh)) then
    QCheck.Test.fail_reportf "seed %d: recycled vmctx differs from fresh" seed;
  (* Behavioral equivalence, not just state: same results from the same
     invocations. *)
  List.iter
    (fun (export, args) ->
      let a = Runtime.invoke recycled export args and b = Runtime.invoke fresh export args in
      if a <> b then QCheck.Test.fail_reportf "seed %d: %s diverged on recycled slot" seed export)
    [ ("load", [ 64L ]); ("glob1", []); ("bump", [ 5L ]); ("size", []) ];
  true

let qcheck_recycled_fresh =
  QCheck.Test.make ~count:80 ~name:"recycled slot = fresh instantiate"
    QCheck.(int_range 1 100_000)
    check_recycled_equals_fresh

(* ------------------------------------------------------------------ *)
(* Dirty-page accounting.                                              *)
(* ------------------------------------------------------------------ *)

let test_dirty_tracking () =
  let e = Runtime.create_engine (Lazy.force compiled) in
  let i = Runtime.instantiate e in
  Alcotest.(check int) "fresh instance has no dirty heap pages" 0 (Runtime.dirty_heap_pages i);
  Runtime.write_memory i ~addr:0 "x";
  Runtime.write_memory i ~addr:10 "y";
  Alcotest.(check int) "same page counted once" 1 (Runtime.dirty_heap_pages i);
  Runtime.write_memory i ~addr:(5 * os_page) "z";
  Runtime.write_memory i ~addr:(9 * os_page) "w";
  Alcotest.(check int) "three distinct pages" 3 (Runtime.dirty_heap_pages i);
  let before = (Runtime.metrics e).Runtime.m_pages_zeroed_on_recycle in
  Runtime.release i;
  let zeroed = (Runtime.metrics e).Runtime.m_pages_zeroed_on_recycle - before in
  (* Heap dirt plus the vmctx page the instantiation itself touched —
     nowhere near the 32-page heap. *)
  Alcotest.(check bool)
    (Printf.sprintf "recycle dropped ~dirty pages (got %d)" zeroed)
    true
    (zeroed >= 3 && zeroed <= 6)

let test_recycle_cost_tracks_dirt_not_heap () =
  (* Same dirt on a 64x larger heap must recycle the same page count. *)
  let big =
    let b = create ~memory_pages:128 ~max_memory_pages:128 () in
    let store = declare b "store" ~params:[ W.I32; W.I32 ] ~results:[] () in
    define b store [ get 0; get 1; store32 () ];
    build b
  in
  let e = Runtime.create_engine (Codegen.compile (Codegen.default_config ()) big) in
  let i = Runtime.instantiate e in
  for p = 0 to 2 do
    Runtime.write_memory i ~addr:(p * os_page) "dirt"
  done;
  let before = (Runtime.metrics e).Runtime.m_pages_zeroed_on_recycle in
  Runtime.release i;
  let zeroed = (Runtime.metrics e).Runtime.m_pages_zeroed_on_recycle - before in
  let heap_os_pages = 128 * wasm_page / os_page in
  Alcotest.(check bool)
    (Printf.sprintf "O(dirty), not O(heap=%d os pages): zeroed %d" heap_os_pages zeroed)
    true
    (zeroed >= 3 && zeroed < 16)

let test_cold_warm_counters () =
  let e = Runtime.create_engine (Lazy.force compiled) in
  let i0 = Runtime.instantiate e in
  let i1 = Runtime.instantiate e in
  Runtime.release i0;
  Runtime.release i1;
  let i2 = Runtime.instantiate e in
  ignore (expect_ok (Runtime.invoke i2 "size" []));
  let m = Runtime.metrics e in
  Alcotest.(check int) "two cold bring-ups" 2 m.Runtime.m_instantiations_cold;
  Alcotest.(check int) "one warm reuse" 1 m.Runtime.m_instantiations_warm

(* ------------------------------------------------------------------ *)
(* Cross-tenant host-block hygiene.                                    *)
(* ------------------------------------------------------------------ *)

let test_host_block_scrubbed_on_recycle () =
  (* A hostcall implementation may spill tenant secrets onto the host
     stack inside the instance's host block. After a kill, the next
     tenant on the slot must read only zeroes there. *)
  let e = Runtime.create_engine (Lazy.force compiled) in
  let sp = Runtime.space e in
  let victim = Runtime.instantiate e in
  let host_stack = Runtime.vmctx_addr victim + 0x1_0000 in
  Space.write_bytes sp ~addr:(host_stack + 128) (Bytes.of_string "tenant-secret");
  Runtime.kill victim;
  let next = Runtime.instantiate e in
  Alcotest.(check int) "same slot" (Runtime.instance_id victim) (Runtime.instance_id next);
  let leaked = Bytes.to_string (Space.read_bytes sp ~addr:(host_stack + 128) ~len:13) in
  Alcotest.(check string) "host stack scrubbed" (String.make 13 '\000') leaked

(* ------------------------------------------------------------------ *)
(* Transition classes.                                                 *)
(* ------------------------------------------------------------------ *)

let import_module () =
  let b = create ~memory_pages:1 () in
  let p = import b "pure_fn" ~params:[ W.I32 ] ~results:[ W.I32 ] in
  let r = import b "ro_fn" ~params:[ W.I32 ] ~results:[ W.I32 ] in
  let f = import b "full_fn" ~params:[ W.I32 ] ~results:[ W.I32 ] in
  let run = declare b "run" ~params:[] ~results:[ W.I32 ] () in
  define b run [ i32 1; call p; call r; call f ];
  build b

let striped_pool () =
  let params =
    {
      Pool.num_slots = 8;
      max_memory_bytes = 4 * Units.mib;
      expected_slot_bytes = 4 * Units.mib;
      guard_bytes = 16 * Units.mib;
      pre_guard_enabled = false;
      num_pkeys_available = 15;
      stripe_enabled = true;
    }
  in
  match Pool.compute params with Ok l -> l | Error m -> failwith m

let test_transition_classes () =
  let cfg = { (Codegen.default_config ()) with Codegen.colorguard = true } in
  let e =
    Runtime.create_engine
      ~allocator:(Runtime.Pool (striped_pool ()))
      (Codegen.compile cfg (import_module ()))
  in
  Runtime.register_import ~clazz:Runtime.Pure e "pure_fn" (fun _ args -> Int64.add args.(0) 1L);
  Runtime.register_import ~clazz:Runtime.Readonly e "ro_fn" (fun _ args -> Int64.add args.(0) 1L);
  Runtime.register_import e "full_fn" (fun _ args -> Int64.add args.(0) 1L);
  let i = Runtime.instantiate e in
  Alcotest.(check bool) "striped slot has a color" true (Runtime.color i <> 0);
  Alcotest.(check int64) "chain result" 4L (expect_ok (Runtime.invoke i "run" []));
  let m = Runtime.metrics e in
  Alcotest.(check int) "one pure call" 1 m.Runtime.m_calls_pure;
  Alcotest.(check int) "one readonly call" 1 m.Runtime.m_calls_readonly;
  Alcotest.(check int) "one full call (default class)" 1 m.Runtime.m_calls_full;
  (* Pure and Readonly each skip a wrpkru pair the full path would pay. *)
  Alcotest.(check int) "four pkru writes elided" 4 m.Runtime.m_pkru_writes_elided;
  (* invoke entry+exit (2) plus three hostcall round trips (6). *)
  Alcotest.(check int) "eight one-way crossings" 8 m.Runtime.m_transitions;
  Runtime.reset_metrics e;
  Alcotest.(check int) "metrics reset" 0 (Runtime.metrics e).Runtime.m_transitions

(* ------------------------------------------------------------------ *)
(* Host cost of a warm cycle.                                          *)
(* ------------------------------------------------------------------ *)

(* The FaaS sim's ColorGuard engine: a 128-slot striped pool (about 3
   VMAs per live slot) behind the server-class TLB, serving Micro-KV. *)
let churn_engine () =
  let params =
    {
      Pool.num_slots = 128;
      max_memory_bytes = 4 * Units.mib;
      expected_slot_bytes = 4 * Units.mib;
      guard_bytes = 32 * Units.mib;
      pre_guard_enabled = false;
      num_pkeys_available = Sfi_vmem.Mpk.max_usable_keys;
      stripe_enabled = true;
    }
  in
  let layout = match Pool.compute_with_fallback params with Ok (l, _) -> l | Error m -> failwith m in
  let cfg = { (Codegen.default_config ()) with Codegen.colorguard = true } in
  Runtime.create_engine
    ~tlb:{ Sfi_vmem.Tlb.entries = 1536; ways = 8; page_walk_levels = 4; walk_cycles_per_level = 5 }
    ~allocator:(Runtime.Pool layout)
    (Codegen.compile cfg (Sfi_faas.Workloads.module_of Sfi_faas.Workloads.Micro_kv))

(* Minor and major words allocated per warm release + instantiate +
   invoke cycle, with [live] instances held in the pool. *)
let words_per_warm_cycle ~live =
  let e = churn_engine () in
  let insts = Array.init live (fun _ -> Runtime.instantiate e) in
  let cycle k =
    Runtime.release insts.(live - 1);
    let i = Runtime.instantiate e in
    insts.(live - 1) <- i;
    ignore (expect_ok (Runtime.invoke i "handle" [ Int64.of_int k ]))
  in
  for k = 1 to 50 do
    cycle k
  done;
  let cycles = 1000 in
  (* Minor words come from the domain's own counter, exact at any time.
     OCaml 5.1 adds allocations to [Gc.quick_stat]'s counters only at a
     collection (major-heap blocks at a major slice), so the major count
     is read after a minor collection and a slice on each side of the
     window; without them it reads 0. The full major also promotes the
     engine's set-up garbage before the window opens. *)
  Gc.full_major ();
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  for k = 1 to cycles do
    cycle k
  done;
  let minor = Gc.minor_words () -. w0 in
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s1 = Gc.quick_stat () in
  let per words = words /. float_of_int cycles in
  (per minor, per (s1.Gc.major_words -. s0.Gc.major_words))

(* A warm cycle's host cost must follow the pages and VMAs it touches:
   no fresh 4 KiB page per copy-on-write fault (a page is a major-heap
   block), and no per-protect rebuild of the whole VMA map (minor words
   growing with the number of live slots). *)
let test_warm_cycle_allocation () =
  let minor16, major16 = words_per_warm_cycle ~live:16 in
  let minor128, major128 = words_per_warm_cycle ~live:128 in
  List.iter
    (fun (live, major) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d live: %.1f major words per cycle < 50" live major)
        true (major < 50.0))
    [ (16, major16); (128, major128) ];
  Alcotest.(check bool)
    (Printf.sprintf "minor words per cycle: %.1f at 128 live within 10%% of %.1f at 16" minor128
       minor16)
    true
    (Float.abs (minor128 -. minor16) <= 0.1 *. minor16)

let case name f = Alcotest.test_case name `Quick f

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_recycled_fresh;
    case "dirty-page tracking" test_dirty_tracking;
    case "recycle cost tracks dirt, not heap size" test_recycle_cost_tracks_dirt_not_heap;
    case "cold/warm instantiation counters" test_cold_warm_counters;
    case "host block scrubbed across tenants" test_host_block_scrubbed_on_recycle;
    case "transition classes and pkru elision" test_transition_classes;
    case "warm cycle allocation independent of pool size" test_warm_cycle_allocation;
  ]
